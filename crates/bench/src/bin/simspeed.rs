//! Simulation-speed benchmark: runs the same workloads under the naive
//! stepper, the event-driven engine with the linear-scan scheduler
//! (the previous generation), the event-driven engine with the indexed
//! scheduler, and an interval-sampled run, reporting simulated CPU
//! cycles per wall-clock second, times the LLC on its own, and writes
//! `BENCH_simspeed.json`.
//!
//! ```sh
//! cargo run -p crow-bench --release --bin simspeed
//! ```

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crow_cpu::cache::LlcResult;
use crow_cpu::{AccessKind, Llc};
use crow_mem::SchedImpl;
use crow_sim::{Engine, Mechanism, System, SystemConfig};
use crow_workloads::AppProfile;

struct Case {
    app: &'static str,
    mechanism: Mechanism,
    /// Memory channels (1 = the single-channel quick-test platform).
    channels: u32,
}

struct Row {
    label: String,
    naive_cps: f64,
    linear_cps: f64,
    event_cps: f64,
    naive_wall: f64,
    linear_wall: f64,
    event_wall: f64,
    cycles: u64,
    /// Effective simulated-cycle throughput of an interval-sampled run:
    /// the cycles the full run simulates divided by the sampled wall.
    sampled_cps: f64,
    sampled_wall: f64,
    /// Sampled-vs-full IPC error, percent.
    sampled_err_pct: f64,
}

/// The serial configurations each case is timed under: the naive
/// cycle-by-cycle stepper, the event-driven engine with the linear-scan
/// scheduler (the previous fast path, kept as the reference), and the
/// event-driven engine with the indexed scheduler (the current default).
const CONFIGS: [(Engine, SchedImpl); 3] = [
    (Engine::Naive, SchedImpl::Indexed),
    (Engine::EventDriven, SchedImpl::Linear),
    (Engine::EventDriven, SchedImpl::Indexed),
];

fn measure_once(
    case: &Case,
    engine: Engine,
    sched_impl: SchedImpl,
    max_cycles: u64,
) -> (f64, f64, u64) {
    let app = AppProfile::by_name(case.app).unwrap();
    let mut cfg = SystemConfig::quick_test(case.mechanism);
    cfg.channels = case.channels;
    cfg.cpu.target_insts = 200_000;
    cfg.engine = engine;
    cfg.mc.sched_impl = sched_impl;
    let mut sys = System::new(cfg, &[app]);
    let r = sys.run(max_cycles);
    (r.sim_cycles_per_sec, r.wall_seconds, r.cpu_cycles)
}

/// Best of `reps` runs: wall-clock measurements on a shared host are
/// noisy in one direction only (interference slows a run down), so the
/// fastest repetition is the least-perturbed one.
fn measure(
    case: &Case,
    engine: Engine,
    sched_impl: SchedImpl,
    max_cycles: u64,
    reps: u32,
) -> (f64, f64, u64) {
    let mut best = (0.0f64, f64::INFINITY, 0u64);
    for _ in 0..reps {
        let r = measure_once(case, engine, sched_impl, max_cycles);
        if r.0 > best.0 {
            best = r;
        }
    }
    best
}

/// Times the interval-sampled configuration against its own full run at
/// a sampling-friendly span (the default plan measures 10 windows at
/// 2 M instructions/core). Returns `(sampled_cps, sampled_wall,
/// ipc_err_pct)` where `sampled_cps` is the *full* run's simulated
/// cycles over the *sampled* wall — the effective throughput a user
/// gets by sampling instead of running in full.
fn measure_sampled(case: &Case, reps: u32) -> (f64, f64, f64) {
    let app = AppProfile::by_name(case.app).unwrap();
    let run = |sample: Option<crow_sim::sampling::SamplePlan>| {
        let mut best: Option<crow_sim::SimReport> = None;
        for _ in 0..reps {
            let mut cfg = SystemConfig::quick_test(case.mechanism);
            cfg.channels = case.channels;
            cfg.cpu.target_insts = 2_000_000;
            cfg.engine = Engine::EventDriven;
            cfg.mc.sched_impl = SchedImpl::Indexed;
            cfg.sample = sample;
            let mut sys = System::new(cfg, &[app]);
            let r = sys.run(u64::MAX);
            if best
                .as_ref()
                .is_none_or(|b| r.wall_seconds < b.wall_seconds)
            {
                best = Some(r);
            }
        }
        best.expect("reps >= 1")
    };
    let full = run(None);
    let sampled = run(Some(crow_sim::sampling::SamplePlan::default_profile()));
    let full_ipc: f64 = full.ipc.iter().sum();
    let sampled_ipc: f64 = sampled.ipc.iter().sum();
    let err = if full_ipc > 0.0 {
        (sampled_ipc - full_ipc).abs() / full_ipc * 100.0
    } else {
        0.0
    };
    (
        full.cpu_cycles as f64 / sampled.wall_seconds,
        sampled.wall_seconds,
        err,
    )
}

/// The LLC on its own, for the paper's 8 MiB 8-way cache: `Llc::new`,
/// and the cost of one access over a fixed stream of `LLC_ACCESSES`
/// (the detailed path's access, plus the fill after a read miss) with
/// that stream's hit ratio. Half the stream falls in a 4 MiB region the
/// cache holds and half across 64 MiB; one access in four is a store.
/// `Llc::new` is timed once, first in the process, so its memory is fresh
/// as in a new simulation process (the allocator may hand later
/// constructions memory it kept); the access cost is the best of `reps`
/// repetitions, each on a new cache.
struct LlcCost {
    new_us: f64,
    ns_per_access: f64,
    hit_ratio: f64,
}

const LLC_ACCESSES: usize = 2_000_000;

fn measure_llc(reps: u32) -> LlcCost {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let stream: Vec<(u64, AccessKind)> = (0..LLC_ACCESSES)
        .map(|_| {
            // xorshift64, so every run replays the same stream.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let span: u64 = if x & 1 == 0 { 4 << 20 } else { 64 << 20 };
            let kind = if x & 6 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (((x >> 8) % span) & !63, kind)
        })
        .collect();
    let mut best = LlcCost {
        new_us: 0.0,
        ns_per_access: f64::INFINITY,
        hit_ratio: 0.0,
    };
    for rep in 0..reps {
        let t = Instant::now();
        let mut llc = black_box(Llc::new(8 << 20, 8));
        if rep == 0 {
            best.new_us = t.elapsed().as_secs_f64() * 1e6;
        }
        let t = Instant::now();
        for &(pa, kind) in &stream {
            if let LlcResult::Miss { .. } = llc.access(black_box(pa), kind) {
                if kind == AccessKind::Read {
                    llc.fill(pa);
                }
            }
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / LLC_ACCESSES as f64;
        best.ns_per_access = best.ns_per_access.min(ns);
        best.hit_ratio = llc.hits() as f64 / LLC_ACCESSES as f64;
    }
    best
}

fn main() {
    let llc = measure_llc(5);
    println!(
        "LLC 8 MiB 8-way: new {:.1} us, {:.2} ns/access over {LLC_ACCESSES} accesses, hit ratio {:.4}",
        llc.new_us, llc.ns_per_access, llc.hit_ratio
    );

    let cases = [
        Case {
            app: "povray", // low MPKI: long mechanical bubble streams
            mechanism: Mechanism::Baseline,
            channels: 1,
        },
        Case {
            app: "povray",
            mechanism: Mechanism::crow_cache(8),
            channels: 1,
        },
        Case {
            app: "mcf", // high MPKI: the engine must not lose ground
            mechanism: Mechanism::Baseline,
            channels: 1,
        },
        Case {
            app: "mcf",
            mechanism: Mechanism::crow_cache(8),
            channels: 1,
        },
        Case {
            app: "omnetpp", // mcf-like pointer chasing: dense queues
            mechanism: Mechanism::Baseline,
            channels: 1,
        },
        Case {
            app: "random", // synthetic random-access stress: worst-case locality
            mechanism: Mechanism::Baseline,
            channels: 1,
        },
        Case {
            app: "mcf", // memory-bound on the 4-channel paper platform
            mechanism: Mechanism::Baseline,
            channels: 4,
        },
        Case {
            app: "random", // 4-channel stress: every channel's queues churn
            mechanism: Mechanism::crow_cache(8),
            channels: 4,
        },
    ];
    let max_cycles = 50_000_000;

    let mut rows = Vec::new();
    for case in &cases {
        // Warm up the page cache / branch predictors with a short run of
        // each configuration before timing.
        for (engine, sched_impl) in CONFIGS {
            measure(case, engine, sched_impl, 100_000, 1);
        }
        let (naive_cps, naive_wall, cycles) =
            measure(case, CONFIGS[0].0, CONFIGS[0].1, max_cycles, 3);
        let (linear_cps, linear_wall, ln_cycles) =
            measure(case, CONFIGS[1].0, CONFIGS[1].1, max_cycles, 3);
        let (event_cps, event_wall, ev_cycles) =
            measure(case, CONFIGS[2].0, CONFIGS[2].1, max_cycles, 3);
        assert_eq!(
            cycles, ln_cycles,
            "configurations simulated different spans"
        );
        assert_eq!(
            cycles, ev_cycles,
            "configurations simulated different spans"
        );
        let (sampled_cps, sampled_wall, sampled_err_pct) = measure_sampled(case, 2);
        rows.push(Row {
            label: format!(
                "{}/{}/{}ch",
                case.app,
                case.mechanism.label(),
                case.channels
            ),
            naive_cps,
            linear_cps,
            event_cps,
            naive_wall,
            linear_wall,
            event_wall,
            cycles,
            sampled_cps,
            sampled_wall,
            sampled_err_pct,
        });
    }

    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>8} {:>14} {:>8}",
        "case", "naive cyc/s", "linear cyc/s", "event cyc/s", "speedup", "sampled cyc/s", "ipc err"
    );
    for r in &rows {
        println!(
            "{:<28} {:>14.3e} {:>14.3e} {:>14.3e} {:>7.2}x {:>14.3e} {:>7.2}%",
            r.label,
            r.naive_cps,
            r.linear_cps,
            r.event_cps,
            r.event_cps / r.naive_cps,
            r.sampled_cps,
            r.sampled_err_pct
        );
    }

    let mut json = String::from("{\n  \"cases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"case\": \"{}\", \"cpu_cycles\": {}, \
             \"naive_cycles_per_sec\": {:.1}, \"linear_cycles_per_sec\": {:.1}, \
             \"event_cycles_per_sec\": {:.1}, \
             \"naive_wall_seconds\": {:.4}, \"linear_wall_seconds\": {:.4}, \
             \"event_wall_seconds\": {:.4}, \
             \"speedup\": {:.3}, \
             \"sampled_cycles_per_sec\": {:.1}, \"sampled_wall_seconds\": {:.4}, \
             \"sampled_ipc_err_pct\": {:.3}}}{}",
            r.label,
            r.cycles,
            r.naive_cps,
            r.linear_cps,
            r.event_cps,
            r.naive_wall,
            r.linear_wall,
            r.event_wall,
            r.event_cps / r.naive_cps,
            r.sampled_cps,
            r.sampled_wall,
            r.sampled_err_pct,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"llc\": {{\"config\": \"8 MiB 8-way\", \"new_us\": {:.1}, \
         \"ns_per_access\": {:.2}, \"accesses\": {LLC_ACCESSES}, \"hit_ratio\": {:.4}}},\n",
        llc.new_us, llc.ns_per_access, llc.hit_ratio
    );
    json.push_str(
        "  \"notes\": {\n\
         \x20   \"sampled\": \"sampled columns compare the event/indexed configuration full vs interval-sampled (default 20000:10000:170000 plan) at 2M insts/core; sampled_cycles_per_sec is full-run simulated cycles over sampled wall; the 2% IPC-accuracy contract is asserted by sampling_gate on the 4-channel paper platform — the single-channel quick_test platform timed here drifts slightly further (povray ~3%, CROW-8/random ~7% long-FF restore drift)\",\n\
         \x20   \"llc\": \"Llc::new and one access (plus the fill after a read miss) over a fixed 2M-access stream, half within 4 MiB and half across 64 MiB, one in four a store; new_us is the first construction in the process, ns_per_access the best of 5 runs, each on a new cache\"\n\
         \x20 }\n}\n",
    );
    std::fs::write("BENCH_simspeed.json", &json).expect("write BENCH_simspeed.json");
    println!("\nwrote BENCH_simspeed.json");
}
