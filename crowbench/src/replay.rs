//! Layer replays: each layer timed on its own, either over a stream
//! recorded from the workload's own traced job or on the fixed cases the
//! old stdout-only micro benchmarks ran.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crow_circuit::CircuitModel;
use crow_core::{ActDecision, CrowConfig, CrowSubstrate};
use crow_cpu::cache::LlcResult;
use crow_cpu::{AccessKind, Llc, MemAccess, PageTable};
use crow_dram::{ActKind, Addr, AddrMapper, CmdDesc, DramChannel, DramConfig, MapScheme};
use crow_mem::{McConfig, MemController, MemRequest, ReqKind};
use crow_sim::campaign::{Journal, JournalRecord};
use crow_sim::{Engine, Journaled, Json, Mechanism, OutcomeKind, SimReport, System, SystemConfig};
use crow_workloads::AppProfile;

use crate::stats::{median, percentile};

/// Minimum host time each replay loop runs, so that one reading is not
/// dominated by timer resolution.
pub const MIN_REPLAY_SECS: f64 = 0.03;

/// Repeats `pass` (which handles `n` items per call) until at least
/// `min_secs` elapsed; returns nanoseconds per item.
fn per_item_ns(n: usize, min_secs: f64, mut pass: impl FnMut()) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < min_secs {
        pass();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes as f64 * n as f64)
}

/// Layer costs measured by replaying one job's recorded access stream.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamReplay {
    pub llc_ns_per_access: f64,
    pub llc_hit_ratio: f64,
    pub decode_ns: f64,
    pub mem_ns_per_request: f64,
    pub ns_per_decide: f64,
}

/// Replays `accesses` (virtual addresses of one core) through the LLC,
/// the address mapper, a standalone memory controller (with as many
/// reads in flight as `cores` cores have miss slots) and a CROW table
/// built like the ones of `cfg`.
pub fn replay_stream(
    accesses: &[MemAccess],
    cfg: &SystemConfig,
    cores: u32,
    min_secs: f64,
) -> StreamReplay {
    let dram = cfg.effective_dram();
    let mapper = AddrMapper::new(cfg.scheme, cfg.channels, &dram);
    let mut pages = PageTable::new(mapper.capacity_bytes(), cfg.seed);
    let stream: Vec<(u64, AccessKind)> = accesses
        .iter()
        .map(|a| {
            let kind = if a.is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (pages.translate(a.vaddr), kind)
        })
        .collect();

    // LLC: one pass to fill it, then timed passes; the hit ratio is the
    // warm one. Misses of the warm pass feed the layers below.
    let mut llc = Llc::new(cfg.cpu.llc_bytes, cfg.cpu.llc_ways);
    for &(pa, kind) in &stream {
        if let LlcResult::Miss { .. } = llc.access(pa, kind) {
            if kind == AccessKind::Read {
                llc.fill(pa);
            }
        }
    }
    let mut misses = Vec::new();
    for &(pa, kind) in &stream {
        if let LlcResult::Miss { .. } = llc.access(pa, kind) {
            misses.push(pa & !63);
            if kind == AccessKind::Read {
                llc.fill(pa);
            }
        }
    }
    let llc_hit_ratio = if stream.is_empty() {
        0.0
    } else {
        1.0 - misses.len() as f64 / stream.len() as f64
    };
    let llc_ns_per_access = per_item_ns(stream.len(), min_secs, || {
        for &(pa, kind) in &stream {
            black_box(llc.access(pa, kind));
        }
    });

    let decode_ns = per_item_ns(misses.len(), min_secs, || {
        for &pa in &misses {
            black_box(mapper.decode(pa));
        }
    });
    let addrs: Vec<Addr> = misses.iter().map(|&pa| mapper.decode(pa)).collect();

    let mut plain = dram.clone();
    plain.copy_rows_per_subarray = 0;
    let channels = cfg.channels;
    let window = (cfg.cpu.mshrs * cores) as usize;
    let mem_ns_per_request = per_item_ns(addrs.len(), min_secs, || {
        black_box(closed_loop(&addrs, channels, &plain, cfg.mc, window));
    });

    let ns_per_decide = per_item_ns(addrs.len(), min_secs, || {
        let mut crow = CrowSubstrate::new(CrowConfig {
            banks: dram.banks * dram.ranks,
            subarrays_per_bank: dram.subarrays_per_bank(),
            rows_per_subarray: dram.rows_per_subarray,
            copy_rows: 8,
            share_factor: 1,
            cache: true,
            hammer: None,
            ideal: false,
        });
        for a in &addrs {
            let bank = a.rank * dram.banks + a.bank;
            let sa = a.row / dram.rows_per_subarray;
            match crow.decide(bank, sa, a.row) {
                ActDecision::CopyInstall { copy } => crow.commit_install(bank, sa, a.row, copy),
                ActDecision::RestoreFirst { victim_row, .. } => {
                    crow.on_precharge(bank, sa, victim_row, true);
                }
                d => {
                    black_box(d);
                }
            }
        }
    });

    StreamReplay {
        llc_ns_per_access,
        llc_hit_ratio,
        decode_ns,
        mem_ns_per_request,
        ns_per_decide,
    }
}

/// Serves `addrs` as reads through one controller per channel with at
/// most `window` in flight (the cores' miss slots). Each memory cycle
/// ticks only the controllers with an event due and charges the others
/// idle time, the way the event-driven engine steps them; cycles where
/// no controller has an event are skipped. Returns the memory cycles
/// taken.
fn closed_loop(
    addrs: &[Addr],
    channels: u32,
    dram: &DramConfig,
    mc_cfg: McConfig,
    window: usize,
) -> u64 {
    let mut mcs: Vec<MemController> = (0..channels)
        .map(|_| MemController::new(mc_cfg, dram.clone(), None))
        .collect();
    let mut wake = vec![0u64; mcs.len()];
    let mut out = Vec::new();
    let (mut next, mut done, mut now) = (0usize, 0usize, 0u64);
    let cap = 1_000 * addrs.len() as u64 + 100_000;
    while done < addrs.len() && now < cap {
        while next < addrs.len() && next - done < window {
            let a = addrs[next];
            let ch = a.channel as usize % mcs.len();
            let req = MemRequest::new(next as u64, ReqKind::Read, a.rank, a.bank, a.row, a.col, 0);
            if mcs[ch].try_enqueue(req).is_err() {
                break;
            }
            wake[ch] = 0;
            next += 1;
        }
        for (mc, w) in mcs.iter_mut().zip(wake.iter_mut()) {
            if now < *w {
                mc.skip_idle(1);
            } else {
                mc.tick(now, &mut out);
                *w = mc.min_wakeup(now);
            }
        }
        done += out.len();
        out.clear();
        now += 1;
        let blocked = next == addrs.len() || next - done >= window;
        let due = wake.iter().copied().min().unwrap_or(now);
        if blocked && due > now {
            for mc in &mut mcs {
                mc.skip_idle(due - now);
            }
            now = due;
        }
    }
    now
}

/// Host seconds of one run of `f`.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// `SimReport` journal encode and decode, in microseconds per report.
pub fn codec(report: &SimReport, min_secs: f64) -> (f64, f64) {
    let encode_ns = per_item_ns(1, min_secs, || {
        black_box(report.encode().render());
    });
    let text = report.encode().render();
    let decode_ns = per_item_ns(1, min_secs, || {
        let doc = Json::parse(&text).expect("own rendering parses");
        black_box(SimReport::decode(&doc));
    });
    (encode_ns / 1e3, decode_ns / 1e3)
}

/// Durable `Journal::append` (fsync included) of `n` records carrying
/// `report`, into a fresh journal in `dir`: p50 and p95 microseconds.
pub fn journal_append(dir: &Path, report: &SimReport, n: usize) -> Result<(f64, f64), String> {
    let path = dir.join("append-replay.jsonl");
    let mut journal = Journal::open(&path, false).map_err(|e| e.to_string())?;
    let payload = report.encode().render();
    let mut times = Vec::with_capacity(n);
    for i in 0..n {
        let rec = JournalRecord {
            fingerprint: format!("replay/{i}"),
            kind: OutcomeKind::Ok,
            attempts: 1,
            error: None,
            payload: Some(payload.clone()),
        };
        let t = Instant::now();
        journal.append(&rec).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
    Ok((percentile(&times, 50.0), percentile(&times, 95.0)))
}

/// Median of `reps` alternating timings of `a` and `b`: returns
/// `(median a, median b)` in seconds.
pub fn alternate(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let mut ta = Vec::new();
    let mut tb = Vec::new();
    for _ in 0..reps {
        ta.push(secs(&mut a));
        tb.push(secs(&mut b));
    }
    (median(&ta), median(&tb))
}

/// Times `iters` calls of `f` after a tenth as many untimed ones;
/// nanoseconds per call.
fn bench(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 + 1 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn iters(base: u64, factor: f64) -> u64 {
    ((base as f64 * factor) as u64).max(1)
}

fn quick_system(mechanism: Mechanism) -> SystemConfig {
    let mut cfg = SystemConfig::quick_test(mechanism);
    cfg.validate_protocol = false;
    cfg.oracle = false;
    cfg.threads = 1;
    cfg.engine = Engine::EventDriven;
    cfg.mc.sched_impl = crow_mem::SchedImpl::Indexed;
    cfg
}

/// Every case of the former `microbench` and `simbench` benches, with
/// their iteration counts scaled by `factor`.
pub fn micro_cases(factor: f64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    let mut s = CrowSubstrate::new(CrowConfig::paper_default());
    for row in 0..64u32 {
        if let ActDecision::CopyInstall { copy } = s.decide(0, row % 8, row) {
            s.commit_install(0, row % 8, row, copy);
        }
    }
    let mut row = 0u32;
    out.push((
        "replay.crow_table_peek_ns",
        bench(iters(1_000_000, factor), || {
            row = (row + 1) % 64;
            black_box(s.peek(0, row % 8, row));
        }),
    ));

    let mut ch = DramChannel::new(DramConfig::lpddr4_default());
    out.push((
        "replay.dram_act_rd_pre_ns",
        bench(iters(200_000, factor), || {
            let act = CmdDesc::act(0, 0, ActKind::single(5));
            let now = ch.ready_at(&act).expect("closed bank accepts ACT");
            ch.issue(&act, now);
            let rd = CmdDesc::rd(0, 0, 3);
            let t = ch.ready_at(&rd).expect("open row accepts RD");
            ch.issue(&rd, t);
            let pre = CmdDesc::pre(0, 0);
            let t = ch.ready_at(&pre).expect("open bank accepts PRE");
            ch.issue(&pre, t);
            black_box(t);
        }),
    ));

    let m = AddrMapper::new(MapScheme::RoBaRaCoCh, 4, &DramConfig::lpddr4_default());
    let mut pa = 0u64;
    out.push((
        "replay.addr_decode_ns",
        bench(iters(2_000_000, factor), || {
            pa = pa.wrapping_add(0x1_2345_6740);
            black_box(m.decode(pa));
        }),
    ));

    let mut llc = Llc::new(8 << 20, 8);
    let mut a = 0u64;
    out.push((
        "replay.llc_access_ns",
        bench(iters(1_000_000, factor), || {
            a = a.wrapping_add(4096 + 64);
            black_box(llc.access(a % (64 << 20), AccessKind::Read));
        }),
    ));

    out.push((
        "replay.circuit_calibration_us",
        bench(iters(2_000, factor), || {
            black_box(CircuitModel::calibrated());
        }) / 1e3,
    ));
    let model = CircuitModel::calibrated();
    out.push((
        "replay.circuit_mra_sweep_us",
        bench(iters(10_000, factor), || {
            black_box(model.mra_sweep(9));
        }) / 1e3,
    ));

    let mut t = AppProfile::by_name("mcf").expect("suite app").trace(7);
    out.push((
        "replay.trace_next_entry_ns",
        bench(iters(2_000_000, factor), || {
            black_box(t.next_entry());
        }),
    ));

    let mcf = AppProfile::by_name("mcf").expect("suite app");
    for (name, mech) in [
        ("replay.system_30k_baseline_ms", Mechanism::Baseline),
        ("replay.system_30k_crow8_ms", Mechanism::crow_cache(8)),
        ("replay.system_30k_combined_ms", Mechanism::crow_combined()),
    ] {
        out.push((
            name,
            bench(iters(10, factor), || {
                let mut sys = System::new(quick_system(mech), &[mcf]);
                black_box(sys.run(20_000_000));
            }) / 1e6,
        ));
    }

    out.push((
        "replay.controller_1k_reads_ms",
        bench(iters(50, factor), || {
            let mut dram = DramConfig::tiny_test();
            dram.copy_rows_per_subarray = 0;
            let mut mc = MemController::new(McConfig::paper_default(), dram, None);
            let mut done = Vec::new();
            let (mut next, mut now) = (0u64, 0u64);
            while done.len() < 1000 {
                if mc.can_accept_read() && next < 1000 {
                    let row = (next * 97) % 512;
                    let bank = (next * 13) % 2;
                    let _ = mc.try_enqueue(MemRequest::new(
                        next,
                        ReqKind::Read,
                        0,
                        bank as u32,
                        row as u32,
                        (next % 16) as u32,
                        0,
                    ));
                    next += 1;
                }
                mc.tick(now, &mut done);
                now += 1;
            }
            black_box(now);
        }) / 1e6,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_replay_measures_every_layer() {
        let cfg = quick_system(Mechanism::crow_cache(8));
        let mut t = AppProfile::by_name("mcf").unwrap().trace(3);
        let accesses: Vec<MemAccess> = (0..20_000).filter_map(|_| t.next_entry().access).collect();
        let r = replay_stream(&accesses, &cfg, 1, 0.0);
        assert!(r.llc_ns_per_access > 0.0 && r.decode_ns > 0.0);
        assert!(r.mem_ns_per_request > 0.0 && r.ns_per_decide > 0.0);
        assert!((0.0..1.0).contains(&r.llc_hit_ratio));
    }

    #[test]
    fn closed_loop_serves_every_request() {
        let dram = DramConfig::lpddr4_default();
        let addrs: Vec<Addr> = (0..500u32)
            .map(|i| Addr {
                channel: 0,
                rank: 0,
                bank: i % 8,
                row: (i * 37) % 4096,
                col: i % 32,
            })
            .collect();
        let cycles = closed_loop(&addrs, 1, &dram, McConfig::paper_default(), 8);
        assert!(cycles > 500 && cycles < 500_000, "{cycles}");
    }

    #[test]
    fn every_micro_case_reports_a_positive_time() {
        let cases = micro_cases(0.001);
        assert_eq!(cases.len(), 11);
        assert!(cases.iter().all(|&(_, v)| v > 0.0));
    }
}
