//! Aggregated run reports.

use crow_core::CrowStats;
use crow_dram::ChannelStats;
use crow_energy::EnergyCounter;
use crow_mem::stats::LATENCY_BUCKETS;
use crow_mem::{McStats, SchedStats};

use crate::campaign::Journaled;
use crate::fault::FaultStats;
use crate::hammer::HammerStats;
use crate::json::Json;
use crate::sampling::SampleStats;

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-core IPC over each core's measured window.
    pub ipc: Vec<f64>,
    /// Per-core demand MPKI.
    pub mpki: Vec<f64>,
    /// CPU cycles simulated (to the last core's finish or the cap).
    pub cpu_cycles: u64,
    /// Memory-bus cycles simulated.
    pub mem_cycles: u64,
    /// Merged controller statistics across channels.
    pub mc: McStats,
    /// Merged DRAM command counts across channels.
    pub commands: ChannelStats,
    /// Merged CROW mechanism statistics (zeros when CROW is off).
    pub crow: CrowStats,
    /// Merged DRAM energy across channels.
    pub energy: EnergyCounter,
    /// Whether every core reached its instruction target.
    pub finished: bool,
    /// Protocol violations recorded by the shadow validator across all
    /// channels (always 0 when `validate_protocol` is off).
    pub violations: u64,
    /// Cores parked because their instruction trace ran dry.
    pub trace_faults: u64,
    /// Periodic injection counters: VRT events and command-bus drops
    /// (all zero without `vrt_interval_cycles` or a fault plan).
    pub faults: FaultStats,
    /// Merged scheduler work counters across channels (diagnostic; not
    /// part of the cross-engine equivalence contract — engines and
    /// scheduler implementations legitimately differ here).
    pub sched: SchedStats,
    /// RowHammer attack-scenario outcome (all zero without an active
    /// [`crate::hammer::HammerScenario`]; `detections` and
    /// `mitigation_refreshes` also count ambient mitigation work).
    pub hammer: HammerStats,
    /// Interval-sampling outcome: per-window means and 95% confidence
    /// intervals ([`crate::sampling`]). `None` for a full detailed run.
    pub samples: Option<SampleStats>,
    /// Wall-clock seconds the `run` call took (diagnostic; not part of
    /// the cross-engine equivalence contract).
    pub wall_seconds: f64,
    /// Simulated CPU cycles per wall-clock second over the `run` call
    /// (diagnostic; not part of the cross-engine equivalence contract).
    pub sim_cycles_per_sec: f64,
}

impl SimReport {
    /// Sum of per-core IPCs (throughput).
    pub fn ipc_sum(&self) -> f64 {
        self.ipc.iter().sum()
    }

    /// CROW-table hit rate (0 when CROW-cache is off).
    pub fn crow_hit_rate(&self) -> f64 {
        self.crow.hit_rate()
    }

    /// Total DRAM energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy.total_nj() / 1e6
    }
}

// --- campaign journal codec -------------------------------------------
//
// Counter values ride the journal as exact JSON tokens (`u64` decimal,
// `f64` shortest round-trip), so a report restored from a journal is
// bit-identical to the freshly computed one and resumed figure output
// matches a clean run byte for byte. The two wall-clock diagnostics are
// journaled too, but figures must never put them in their data files —
// they differ between a fresh and a restored run by construction.

fn f64s(vs: &[f64]) -> Json {
    Json::Arr(vs.iter().map(|&v| Json::f64(v)).collect())
}

fn u64s(vs: &[u64]) -> Json {
    Json::Arr(vs.iter().map(|&v| Json::u64(v)).collect())
}

// Non-finite values journal as `null` (JSON has no NaN token) and
// restore as NaN, so the NaN sentinels of failed-job reports round-trip.
fn get_f64s(v: &Json, key: &str) -> Option<Vec<f64>> {
    v.get(key)?
        .as_arr()?
        .iter()
        .map(|e| match e {
            Json::Null => Some(f64::NAN),
            other => other.as_f64(),
        })
        .collect()
}

fn get_u64s(v: &Json, key: &str) -> Option<Vec<u64>> {
    v.get(key)?.as_arr()?.iter().map(Json::as_u64).collect()
}

fn get_u64(v: &Json, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn get_f64(v: &Json, key: &str) -> Option<f64> {
    v.get(key)?.as_f64()
}

impl Journaled for SimReport {
    fn encode(&self) -> Json {
        let mc = &self.mc;
        let mc_counters = [
            mc.reads,
            mc.writes,
            mc.row_hits,
            mc.row_misses,
            mc.row_conflicts,
            mc.refreshes,
            mc.rejections,
            mc.read_latency_sum,
            mc.read_latency_max,
            mc.restore_activations,
            mc.hammer_copies,
            mc.bus_drops,
            mc.neighbor_refreshes,
        ];
        let crow = [
            self.crow.cache_lookups,
            self.crow.cache_hits,
            self.crow.cache_installs,
            self.crow.clean_evictions,
            self.crow.restore_evictions,
            self.crow.ref_redirects,
            self.crow.hammer_redirects,
            self.crow.hammer_remaps,
        ];
        let energy = [
            self.energy.act_nj,
            self.energy.rd_nj,
            self.energy.wr_nj,
            self.energy.ref_nj,
            self.energy.background_nj,
        ];
        // Slots 1, 2 and 4 held the removed synthetic-hammer and
        // suppression counters. They stay as zeros so a run without an
        // injector journals the same bytes and older journals decode.
        let faults = [
            self.faults.vrt_injected,
            0,
            0,
            self.faults.drops_injected,
            0,
        ];
        let sched = [
            self.sched.picks,
            self.sched.scanned,
            self.sched.fastpath_skips,
            self.sched.rebuilds,
            self.sched.wakeup_skips,
        ];
        let hammer = [
            self.hammer.injected,
            self.hammer.flips,
            self.hammer.flipped_rows,
            self.hammer.absorbed,
            self.hammer.detections,
            self.hammer.mitigation_refreshes,
        ];
        let mut fields = vec![
            ("ipc".into(), f64s(&self.ipc)),
            ("mpki".into(), f64s(&self.mpki)),
            ("cpu_cycles".into(), Json::u64(self.cpu_cycles)),
            ("mem_cycles".into(), Json::u64(self.mem_cycles)),
            ("mc".into(), u64s(&mc_counters)),
            ("latency_hist".into(), u64s(&mc.latency_hist)),
            ("commands".into(), u64s(&self.commands.snapshot())),
            ("crow".into(), u64s(&crow)),
            ("energy".into(), f64s(&energy)),
            ("finished".into(), Json::Bool(self.finished)),
            ("violations".into(), Json::u64(self.violations)),
            ("trace_faults".into(), Json::u64(self.trace_faults)),
            ("faults".into(), u64s(&faults)),
            ("sched".into(), u64s(&sched)),
            ("hammer".into(), u64s(&hammer)),
            ("wall_seconds".into(), Json::f64(self.wall_seconds)),
            (
                "sim_cycles_per_sec".into(),
                Json::f64(self.sim_cycles_per_sec),
            ),
        ];
        // Full runs omit the key entirely, so pre-sampling journals and
        // full-run journals are byte-identical to before.
        if let Some(s) = &self.samples {
            fields.push(("samples".into(), s.to_json()));
        }
        Json::Obj(fields)
    }

    fn decode(v: &Json) -> Option<Self> {
        let mc_counters = get_u64s(v, "mc")?;
        let hist = get_u64s(v, "latency_hist")?;
        let commands = get_u64s(v, "commands")?;
        let crow = get_u64s(v, "crow")?;
        let energy = get_f64s(v, "energy")?;
        let faults = get_u64s(v, "faults")?;
        // Journals written before the scheduler counters existed lack
        // the key entirely (restore as zeros); a present but malformed
        // array is still a decode error.
        let sched = match v.get("sched") {
            None => SchedStats::default(),
            Some(_) => {
                let s = get_u64s(v, "sched")?;
                if s.len() != 5 {
                    return None;
                }
                SchedStats {
                    picks: s[0],
                    scanned: s[1],
                    fastpath_skips: s[2],
                    rebuilds: s[3],
                    wakeup_skips: s[4],
                }
            }
        };
        // Journals written before the RowHammer subsystem existed lack
        // the key entirely (restore as zeros), same back-compat rule as
        // `sched`.
        let hammer = match v.get("hammer") {
            None => HammerStats::default(),
            Some(_) => {
                let h = get_u64s(v, "hammer")?;
                if h.len() != 6 {
                    return None;
                }
                HammerStats {
                    injected: h[0],
                    flips: h[1],
                    flipped_rows: h[2],
                    absorbed: h[3],
                    detections: h[4],
                    mitigation_refreshes: h[5],
                }
            }
        };
        // Full runs (and journals predating sampling) have no `samples`
        // key and restore as `None`; a present-but-malformed object is
        // still a decode error.
        let samples = match v.get("samples") {
            None => None,
            Some(s) => Some(SampleStats::decode(s)?),
        };
        // 12-counter `mc` arrays predate the `neighbor_refreshes`
        // mitigation counter; both lengths decode.
        if !(mc_counters.len() == 12 || mc_counters.len() == 13)
            || hist.len() != LATENCY_BUCKETS
            || commands.len() != 8
            || crow.len() != 8
            || energy.len() != 5
            || faults.len() != 5
        {
            return None;
        }
        let mut latency_hist = [0u64; LATENCY_BUCKETS];
        latency_hist.copy_from_slice(&hist);
        let mut cmd = [0u64; 8];
        cmd.copy_from_slice(&commands);
        Some(SimReport {
            ipc: get_f64s(v, "ipc")?,
            mpki: get_f64s(v, "mpki")?,
            cpu_cycles: get_u64(v, "cpu_cycles")?,
            mem_cycles: get_u64(v, "mem_cycles")?,
            mc: McStats {
                reads: mc_counters[0],
                writes: mc_counters[1],
                row_hits: mc_counters[2],
                row_misses: mc_counters[3],
                row_conflicts: mc_counters[4],
                refreshes: mc_counters[5],
                rejections: mc_counters[6],
                read_latency_sum: mc_counters[7],
                read_latency_max: mc_counters[8],
                restore_activations: mc_counters[9],
                hammer_copies: mc_counters[10],
                bus_drops: mc_counters[11],
                neighbor_refreshes: mc_counters.get(12).copied().unwrap_or(0),
                latency_hist,
            },
            commands: ChannelStats::from_snapshot(cmd),
            crow: CrowStats {
                cache_lookups: crow[0],
                cache_hits: crow[1],
                cache_installs: crow[2],
                clean_evictions: crow[3],
                restore_evictions: crow[4],
                ref_redirects: crow[5],
                hammer_redirects: crow[6],
                hammer_remaps: crow[7],
            },
            energy: EnergyCounter {
                act_nj: energy[0],
                rd_nj: energy[1],
                wr_nj: energy[2],
                ref_nj: energy[3],
                background_nj: energy[4],
            },
            finished: v.get("finished")?.as_bool()?,
            violations: get_u64(v, "violations")?,
            trace_faults: get_u64(v, "trace_faults")?,
            faults: FaultStats {
                vrt_injected: faults[0],
                drops_injected: faults[3],
            },
            sched,
            hammer,
            samples,
            wall_seconds: get_f64(v, "wall_seconds").unwrap_or(0.0),
            sim_cycles_per_sec: get_f64(v, "sim_cycles_per_sec").unwrap_or(0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_values() {
        let r = SimReport {
            ipc: vec![1.0, 2.0],
            mpki: vec![5.0, 1.0],
            cpu_cycles: 100,
            mem_cycles: 40,
            mc: McStats::new(),
            commands: ChannelStats::new(),
            crow: CrowStats::new(),
            energy: EnergyCounter::new(),
            finished: true,
            violations: 0,
            trace_faults: 0,
            faults: FaultStats::default(),
            sched: SchedStats::default(),
            hammer: HammerStats::default(),
            samples: None,
            wall_seconds: 0.0,
            sim_cycles_per_sec: 0.0,
        };
        assert!((r.ipc_sum() - 3.0).abs() < 1e-12);
        assert_eq!(r.energy_mj(), 0.0);
    }

    #[test]
    fn journal_codec_roundtrips_bit_exact() {
        let mut mc = McStats {
            reads: u64::MAX,
            read_latency_max: 123,
            ..McStats::new()
        };
        mc.record_latency(100);
        let mut commands = ChannelStats::new();
        commands.record(crow_dram::Command::Act);
        commands.record(crow_dram::Command::Rd);
        let r = SimReport {
            ipc: vec![0.1 + 0.2, 1.0 / 3.0, f64::NAN],
            mpki: vec![5.0, 1e-300],
            cpu_cycles: 1 << 62,
            mem_cycles: 40,
            mc,
            commands,
            crow: CrowStats {
                cache_hits: 7,
                ..CrowStats::new()
            },
            energy: EnergyCounter {
                act_nj: 0.30000000000000004,
                ..EnergyCounter::new()
            },
            finished: false,
            violations: 2,
            trace_faults: 1,
            faults: FaultStats {
                vrt_injected: 3,
                drops_injected: 4,
            },
            sched: SchedStats {
                picks: 11,
                scanned: 97,
                fastpath_skips: 5,
                rebuilds: 2,
                wakeup_skips: u64::MAX,
            },
            hammer: HammerStats::default(),
            samples: None,
            wall_seconds: 1.5,
            sim_cycles_per_sec: 2e9,
        };
        let text = r.encode().render();
        let back = SimReport::decode(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.ipc[0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(back.ipc[2].is_nan(), "NaN sentinel survives the journal");
        assert_eq!(back.mpki[1].to_bits(), 1e-300f64.to_bits());
        assert_eq!(back.cpu_cycles, 1 << 62);
        assert_eq!(back.mc, r.mc);
        assert_eq!(back.commands, r.commands);
        assert_eq!(back.energy.act_nj.to_bits(), r.energy.act_nj.to_bits());
        assert!(!back.finished);
        assert_eq!(back.faults, r.faults);
        assert_eq!(back.sched, r.sched);
        // Re-encoding the decoded report reproduces the bytes.
        assert_eq!(back.encode().render(), text);
        // Older journals may carry the removed hammer and suppression
        // counters in slots 1, 2 and 4; they still decode.
        let old = text.replace("\"faults\":[3,0,0,4,0]", "\"faults\":[3,5,6,4,7]");
        assert_ne!(old, text);
        let back = SimReport::decode(&Json::parse(&old).unwrap()).unwrap();
        assert_eq!(back.faults, r.faults);
    }

    #[test]
    fn journal_with_samples_roundtrips_and_without_restores_none() {
        use crate::sampling::{MetricStats, SamplePlan, SampleStats};
        let mut r = SimReport {
            ipc: vec![1.0],
            mpki: vec![0.5],
            cpu_cycles: 10,
            mem_cycles: 4,
            mc: McStats::new(),
            commands: ChannelStats::new(),
            crow: CrowStats::new(),
            energy: EnergyCounter::new(),
            finished: true,
            violations: 0,
            trace_faults: 0,
            faults: FaultStats::default(),
            sched: SchedStats::default(),
            hammer: HammerStats::default(),
            samples: Some(SampleStats {
                plan: SamplePlan::default_profile(),
                windows: 8,
                measured_insts: 40_000,
                warmed_insts: 20_000,
                skipped_insts: 297_500,
                drain_cycles: 999,
                ipc: MetricStats {
                    mean: 0.1 + 0.2,
                    ci95: 1.0 / 3.0,
                    n: 8,
                },
                energy_nj: MetricStats {
                    mean: 2.5,
                    ci95: 0.25,
                    n: 8,
                },
                row_hit_rate: MetricStats {
                    mean: 0.75,
                    ci95: 0.01,
                    n: 8,
                },
            }),
            wall_seconds: 0.0,
            sim_cycles_per_sec: 0.0,
        };
        let text = r.encode().render();
        let back = SimReport::decode(&Json::parse(&text).unwrap()).unwrap();
        let s = back.samples.expect("samples key restores");
        assert_eq!(s, r.samples.unwrap());
        assert_eq!(s.ipc.mean.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(back.encode().render(), text, "byte-exact re-encode");
        // A full run omits the key and restores as None.
        r.samples = None;
        let text = r.encode().render();
        assert!(!text.contains("samples"));
        let back = SimReport::decode(&Json::parse(&text).unwrap()).unwrap();
        assert!(back.samples.is_none());
        // A present-but-malformed samples object is a decode error.
        let Json::Obj(mut fields) = r.encode() else {
            panic!("encode returns an object")
        };
        fields.push(("samples".into(), Json::Arr(vec![])));
        assert!(SimReport::decode(&Json::Obj(fields)).is_none());
    }

    #[test]
    fn journal_without_sched_counters_decodes_as_zeros() {
        let mut r = SimReport {
            ipc: vec![1.0],
            mpki: vec![0.0],
            cpu_cycles: 1,
            mem_cycles: 1,
            mc: McStats::new(),
            commands: ChannelStats::new(),
            crow: CrowStats::new(),
            energy: EnergyCounter::new(),
            finished: true,
            violations: 0,
            trace_faults: 0,
            faults: FaultStats::default(),
            sched: SchedStats {
                picks: 9,
                ..SchedStats::default()
            },
            hammer: HammerStats::default(),
            samples: None,
            wall_seconds: 0.0,
            sim_cycles_per_sec: 0.0,
        };
        // Simulate a pre-counter journal by stripping the key.
        let Json::Obj(mut fields) = r.encode() else {
            panic!("encode returns an object")
        };
        fields.retain(|(k, _)| k != "sched");
        let back = SimReport::decode(&Json::Obj(fields)).unwrap();
        assert_eq!(back.sched, SchedStats::default());
        // A malformed length is rejected, not silently zeroed.
        r.sched = SchedStats::default();
        let Json::Obj(mut fields) = r.encode() else {
            panic!("encode returns an object")
        };
        for (k, v) in &mut fields {
            if k == "sched" {
                *v = Json::Arr(vec![Json::u64(1)]);
            }
        }
        assert!(SimReport::decode(&Json::Obj(fields)).is_none());
    }
}
