//! System assembly and the main simulation loop.

use crow_baselines::TlDramConfig;
use crow_core::{CrowConfig, CrowStats, CrowSubstrate};
use crow_cpu::{CpuCluster, CpuMemReq, MemPort};
use crow_dram::{AddrMapper, ChannelStats};
use crow_energy::EnergyCounter;
use crow_mem::controller::CacheMode;
use crow_mem::{Completion, McStats, MemController, MemRequest, ReqKind, SchedStats};
use crow_workloads::AppProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{Engine, Mechanism, SystemConfig};
use crate::error::CrowError;
use crate::fault::FaultStats;
use crate::hammer::HammerState;
use crate::report::SimReport;
use crow_dram::ConfigError;

/// Routes CPU requests to the per-channel controllers.
struct Router<'a> {
    mcs: &'a mut [MemController],
    mapper: &'a AddrMapper,
    /// Per-channel next-event bounds; a successful enqueue mutates the
    /// controller, so its bound is reset to force a real tick.
    next_event: &'a mut [u64],
    /// `System::mc_charged`: a send charges its controller up to
    /// `mem_cycle` first, since `try_enqueue` stamps `bg_cycles`.
    charged: &'a mut [u64],
    mem_cycle: u64,
}

impl MemPort for Router<'_> {
    fn send(&mut self, req: CpuMemReq) -> bool {
        let a = self.mapper.decode(req.line_pa);
        let kind = if req.is_write {
            ReqKind::Write
        } else {
            ReqKind::Read
        };
        let mut r = MemRequest::new(req.id, kind, a.rank, a.bank, a.row, a.col, req.core);
        r.is_prefetch = req.is_prefetch;
        let ch = a.channel as usize;
        charge(&mut self.mcs[ch], &mut self.charged[ch], self.mem_cycle);
        if self.mcs[ch].try_enqueue(r).is_ok() {
            self.next_event[ch] = 0;
            true
        } else {
            false
        }
    }
}

/// The assembled system: cores + LLC + channels.
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) cluster: CpuCluster,
    pub(crate) mcs: Vec<MemController>,
    pub(crate) mapper: AddrMapper,
    pub(crate) cpu_cycle: u64,
    pub(crate) mem_cycle: u64,
    /// CPU cycles that ran [`CpuCluster::cycle`] (see
    /// [`System::stepped_cycles`]).
    stepped_cycles: u64,
    clock_accum: u64,
    completions: Vec<Completion>,
    vrt_rng: StdRng,
    /// Per-channel conservative next-event bounds (event-driven engine):
    /// memory ticks strictly before `mc_next_event[i]` are provable
    /// no-ops for controller `i`. 0 forces a real tick.
    mc_next_event: Vec<u64>,
    /// Per channel, the memory cycle the controller's background
    /// accounting has reached. Idle cycles are charged lazily (`charge`)
    /// right before the next call that mutates the controller.
    mc_charged: Vec<u64>,
    /// CPU cycle of the next periodic injection (VRT event or bus drop);
    /// `u64::MAX` when neither is configured. Never behind `cpu_cycle`.
    next_injection: u64,
    fault_stats: FaultStats,
    /// Active RowHammer attack scenario (generator + flip model); `None`
    /// when `cfg.hammer` is unset.
    hammer: Option<HammerState>,
}

impl System {
    /// Builds a system running one application per core.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or the configuration is inconsistent;
    /// [`System::try_new`] returns the error instead.
    pub fn new(cfg: SystemConfig, apps: &[&AppProfile]) -> Self {
        match Self::try_new(cfg, apps) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`System::new`].
    ///
    /// # Errors
    ///
    /// Returns [`CrowError`] if `apps` is empty or any configuration
    /// fails validation.
    pub fn try_new(cfg: SystemConfig, apps: &[&AppProfile]) -> Result<Self, CrowError> {
        if apps.is_empty() {
            return Err(CrowError::Config(ConfigError::new(
                "SystemConfig",
                "at least one application required",
            )));
        }
        let traces = apps
            .iter()
            .enumerate()
            .map(|(i, a)| a.trace(cfg.seed.wrapping_add(i as u64 * 0x5bd1e995)))
            .collect();
        Self::try_with_traces(cfg, traces)
    }

    /// Builds a system from explicit instruction traces, one per core
    /// (e.g. recorded traces loaded with `crow_cpu::trace::load_trace`).
    /// Every configuration (DRAM geometry/timings, controller, CPU) is
    /// validated up front and reported as a typed [`CrowError`] instead
    /// of a panic deep in a constructor.
    ///
    /// # Errors
    ///
    /// Returns [`CrowError`] if `traces` is empty or any configuration
    /// fails validation.
    pub fn try_with_traces(
        cfg: SystemConfig,
        traces: Vec<Box<dyn crow_cpu::TraceSource>>,
    ) -> Result<Self, CrowError> {
        if traces.is_empty() {
            return Err(CrowError::Config(ConfigError::new(
                "SystemConfig",
                "at least one core required",
            )));
        }
        check_config(&cfg).map_err(|reason| ConfigError::new("SystemConfig", reason))?;
        let dram = cfg.effective_dram();
        dram.validate()
            .map_err(|reason| ConfigError::new("DramConfig", reason))?;
        cfg.cpu
            .validate()
            .map_err(|reason| ConfigError::new("CpuConfig", reason))?;
        let mapper = AddrMapper::new(cfg.scheme, cfg.channels, &dram);
        let mut mc_cfg = cfg.mc;
        match cfg.mechanism {
            Mechanism::NoRefresh | Mechanism::IdealCacheNoRefresh => mc_cfg.refresh = false,
            Mechanism::Salp {
                open_page: true, ..
            } => mc_cfg = mc_cfg.with_open_page(),
            Mechanism::Para { hazard } => {
                mc_cfg = mc_cfg.with_mitigation(crow_mem::Mitigation::Para { hazard });
            }
            Mechanism::Trr { entries, threshold } => {
                mc_cfg = mc_cfg.with_mitigation(crow_mem::Mitigation::Trr { entries, threshold });
            }
            _ => {}
        }
        let hammer = match &cfg.hammer {
            None => None,
            Some(sc) => Some(
                HammerState::try_new(sc, &dram, cfg.channels, cfg.seed)
                    .map_err(|reason| ConfigError::new("HammerScenario", reason))?,
            ),
        };
        let mcs: Vec<MemController> = (0..cfg.channels)
            .map(|ch| -> Result<MemController, CrowError> {
                let crow = Self::build_crow(&cfg, &dram, ch);
                let mut mc = MemController::try_new(mc_cfg, dram.clone(), crow)?;
                // PARA's coin stream is per channel so multi-channel
                // samplings do not correlate.
                mc.set_mitigation_seed(cfg.seed ^ 0x5041_5241 ^ (u64::from(ch) << 32));
                if cfg.hammer.is_some() {
                    mc.enable_event_log();
                }
                if let Mechanism::TlDram { near_rows } = cfg.mechanism {
                    let tl = TlDramConfig { near_rows };
                    mc.set_cache_mode(CacheMode::TlDram {
                        near: tl.near_mod(),
                        far: tl.far_mod(),
                    });
                }
                if cfg.oracle {
                    mc.attach_oracle();
                }
                if cfg.validate_protocol {
                    mc.attach_validator();
                }
                Ok(mc)
            })
            .collect::<Result<_, _>>()?;
        let cluster = CpuCluster::new(cfg.cpu, traces, mapper.capacity_bytes(), cfg.seed);
        let vrt_rng = StdRng::seed_from_u64(cfg.seed ^ 0x56525421);
        let mc_next_event = vec![0; mcs.len()];
        let mc_charged = vec![0; mcs.len()];
        let next_injection = next_injection_after(&cfg, 0);
        Ok(Self {
            cfg,
            cluster,
            mcs,
            mapper,
            cpu_cycle: 0,
            mem_cycle: 0,
            stepped_cycles: 0,
            clock_accum: 0,
            completions: Vec::with_capacity(64),
            vrt_rng,
            mc_next_event,
            mc_charged,
            next_injection,
            fault_stats: FaultStats::default(),
            hammer,
        })
    }

    /// Injects one VRT weak-row discovery: a random row of a random bank
    /// on a round-robin channel is declared weak and queued for runtime
    /// remapping (paper §4.2.3).
    pub fn inject_vrt_event(&mut self) {
        let ch = (self.fault_stats.vrt_injected % u64::from(self.cfg.channels)) as usize;
        let dram = self.mcs[ch].channel().config();
        let rank = self.vrt_rng.gen_range(0..dram.ranks);
        let bank = self.vrt_rng.gen_range(0..dram.banks);
        let row = self.vrt_rng.gen_range(0..dram.rows_per_bank);
        charge(&mut self.mcs[ch], &mut self.mc_charged[ch], self.mem_cycle);
        self.mcs[ch].remap_weak_row_in_rank(rank, bank, row);
        self.mc_next_event[ch] = 0;
        self.fault_stats.vrt_injected += 1;
    }

    /// Fires every periodic injection due at the current CPU cycle (a
    /// VRT event, then a bus drop on a round-robin channel) and
    /// schedules the next one.
    fn inject_due(&mut self) {
        let now = self.cpu_cycle;
        let [vrt, drop] = periodic_intervals(&self.cfg);
        if vrt.is_some_and(|i| now.is_multiple_of(i)) {
            self.inject_vrt_event();
        }
        if drop.is_some_and(|i| now.is_multiple_of(i)) {
            let ch = (self.fault_stats.drops_injected % u64::from(self.cfg.channels)) as usize;
            charge(&mut self.mcs[ch], &mut self.mc_charged[ch], self.mem_cycle);
            self.mcs[ch].drop_next_issue();
            self.mc_next_event[ch] = 0;
            self.fault_stats.drops_injected += 1;
        }
        self.next_injection = next_injection_after(&self.cfg, now);
    }

    fn build_crow(
        cfg: &SystemConfig,
        dram: &crow_dram::DramConfig,
        ch: u32,
    ) -> Option<CrowSubstrate> {
        let base = CrowConfig {
            // One table bank range per (rank, bank) pair.
            banks: dram.banks * dram.ranks,
            subarrays_per_bank: dram.subarrays_per_bank(),
            rows_per_subarray: dram.rows_per_subarray,
            copy_rows: dram.copy_rows_per_subarray,
            share_factor: 1,
            cache: true,
            hammer: None,
            ideal: false,
        };
        match cfg.mechanism {
            Mechanism::Baseline
            | Mechanism::NoRefresh
            | Mechanism::Salp { .. }
            | Mechanism::Para { .. }
            | Mechanism::Trr { .. } => None,
            Mechanism::CrowCache { share_factor, .. } => {
                let mut c = base;
                c.share_factor = share_factor;
                Some(CrowSubstrate::new(c))
            }
            Mechanism::TlDram { .. } => Some(CrowSubstrate::new(base)),
            Mechanism::IdealCache | Mechanism::IdealCacheNoRefresh => {
                let mut c = base;
                c.ideal = true;
                Some(CrowSubstrate::new(c))
            }
            Mechanism::CrowRef { profile } => {
                let mut c = base;
                c.cache = false;
                let mut s = CrowSubstrate::new(c);
                let weak = profile.generate(
                    dram.banks * dram.ranks,
                    dram.subarrays_per_bank(),
                    dram.rows_per_subarray,
                    dram.copy_rows_per_subarray,
                    cfg.seed ^ (0x9e37 + u64::from(ch)),
                );
                s.install_ref_plan(&weak);
                Some(s)
            }
            Mechanism::CrowCombined { profile, .. } => {
                let mut s = CrowSubstrate::new(base);
                let weak = profile.generate(
                    dram.banks * dram.ranks,
                    dram.subarrays_per_bank(),
                    dram.rows_per_subarray,
                    dram.copy_rows_per_subarray,
                    cfg.seed ^ (0x9e37 + u64::from(ch)),
                );
                s.install_ref_plan(&weak);
                Some(s)
            }
            Mechanism::RowHammer { hammer, .. } => {
                let mut c = base;
                c.hammer = Some(hammer);
                Some(CrowSubstrate::new(c))
            }
        }
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Functionally warms the LLC/page tables (no timing).
    pub fn warm(&mut self, instructions: u64) {
        self.cluster.warm(instructions);
    }

    /// Direct access to the controllers (tests/diagnostics).
    pub fn controllers(&self) -> &[MemController] {
        &self.mcs
    }

    /// CPU cycles in which the cluster was stepped
    /// ([`CpuCluster::cycle`]) so far; the cluster replayed the rest of
    /// [`SimReport::cpu_cycles`] in closed form, while the controllers
    /// ticked on their own. A deterministic measure of engine work, kept
    /// out of the report so journals do not depend on it.
    pub fn stepped_cycles(&self) -> u64 {
        self.stepped_cycles
    }

    /// Core-cycles that ran the per-core step inside
    /// [`CpuCluster::cycle`]; a core inert in a stepped cycle is skipped
    /// and replayed in closed form. At most the core count times
    /// [`System::stepped_cycles`]; kept out of the report likewise.
    pub fn stepped_core_cycles(&self) -> u64 {
        self.cluster.stepped_core_cycles()
    }

    /// Advances the system by one CPU cycle: due injections, the memory
    /// half ([`System::tick_memory`]), then the cluster half
    /// ([`System::step_cluster`]).
    pub(crate) fn step(&mut self, event_driven: bool) {
        if self.cpu_cycle == self.next_injection {
            self.inject_due();
        }
        self.poll_hammer();
        self.tick_memory(event_driven);
        self.step_cluster();
    }

    /// The memory half of a CPU cycle: advances the clock accumulator
    /// and, if it yields a memory tick, ticks every controller.
    /// Completions wait in `self.completions` for the cluster half.
    ///
    /// With `event_driven` set, a controller whose tick is provably
    /// before its next event is left alone: the idle cycle is charged
    /// with the rest of its gap before its next mutation.
    fn tick_memory(&mut self, event_driven: bool) {
        let (num, den) = SystemConfig::CLOCK_RATIO;
        self.clock_accum += den;
        if self.clock_accum < num {
            return;
        }
        self.clock_accum -= num;
        let now = self.mem_cycle;
        let hammer = &mut self.hammer;
        for (i, mc) in self.mcs.iter_mut().enumerate() {
            if event_driven && now < self.mc_next_event[i] {
                continue;
            }
            charge(mc, &mut self.mc_charged[i], now);
            mc.tick(now, &mut self.completions);
            self.mc_charged[i] = now + 1;
            if let Some(hs) = hammer.as_mut() {
                hs.drain(i as u32, mc);
            }
            if event_driven {
                self.mc_next_event[i] = mc.min_wakeup(now);
            }
        }
        self.mem_cycle += 1;
    }

    /// The cluster half of a CPU cycle: delivers the completions the
    /// memory half collected, then runs the cores for one cycle.
    fn step_cluster(&mut self) {
        for c in self.completions.drain(..) {
            self.cluster.on_completion(c.id, self.cpu_cycle);
        }
        let mut router = Router {
            mcs: &mut self.mcs,
            mapper: &self.mapper,
            next_event: &mut self.mc_next_event,
            charged: &mut self.mc_charged,
            mem_cycle: self.mem_cycle,
        };
        self.cluster.cycle(self.cpu_cycle, &mut router);
        self.cpu_cycle += 1;
        self.stepped_cycles += 1;
    }

    /// Delivers one due aggressor request to its channel's controller
    /// (no-op without an active scenario). Rejections re-arm for retry;
    /// a successful enqueue mutates the controller, so its event-driven
    /// bound is reset just like the [`Router`]'s.
    fn poll_hammer(&mut self) {
        let Some(hs) = self.hammer.as_mut() else {
            return;
        };
        if let Some(req) = hs.gen.poll(self.cpu_cycle) {
            let ch = hs.gen.channel() as usize;
            charge(&mut self.mcs[ch], &mut self.mc_charged[ch], self.mem_cycle);
            match self.mcs[ch].try_enqueue(req) {
                Ok(()) => {
                    hs.gen.note_injected();
                    self.mc_next_event[ch] = 0;
                }
                Err(r) => hs.gen.requeue(r),
            }
        }
    }

    /// One iteration of the event-driven engine (DESIGN §3.10): a cycle
    /// stepped in full, or a stretch up to the cluster's inert horizon
    /// (capped at the cycle limit, the next injection and the next
    /// aggressor poll) in which only the controllers advance. An inert
    /// cluster sends nothing to memory and hears from it only through a
    /// tick, so the stretch ends in the first cycle whose tick delivers a
    /// completion, and the cluster steps that one. The cores replay the
    /// skipped cycles in closed form when they are next touched.
    fn advance(&mut self, max_cpu_cycles: u64) {
        let start = self.cpu_cycle;
        let mut end = start
            .saturating_add(self.cluster.inert_cycles(start))
            .min(max_cpu_cycles)
            .min(self.next_injection);
        if let Some(hs) = &self.hammer {
            end = end.min(start + hs.gen.next_boundary_in(start));
        }
        if end == start {
            self.step(true);
            return;
        }
        loop {
            self.skip_to_next_event(end);
            if self.cpu_cycle == end {
                break;
            }
            self.tick_memory(true);
            if !self.completions.is_empty() {
                self.step_cluster();
                return;
            }
            self.cpu_cycle += 1;
        }
    }

    /// Advances the clock towards `end`, stopping just before the cycle
    /// that yields the next due controller tick. The memory ticks on the
    /// way are idle for every controller and are charged lazily. Over
    /// `k` CPU cycles the accumulator yields `(clock_accum + den*k) /
    /// num` ticks, at memory cycles `mem_cycle ..`; bounding those below
    /// the earliest event gives the largest `k`.
    fn skip_to_next_event(&mut self, end: u64) {
        let (num, den) = SystemConfig::CLOCK_RATIO;
        let mem_next = self.mc_next_event.iter().copied().min().unwrap_or(u64::MAX);
        let r = mem_next.saturating_sub(self.mem_cycle);
        let budget = num
            .saturating_mul(r.saturating_add(1))
            .saturating_sub(1 + self.clock_accum);
        let k = (budget / den).min(end - self.cpu_cycle);
        let total = self.clock_accum + den * k;
        self.mem_cycle += total / num;
        self.clock_accum = total % num;
        self.cpu_cycle += k;
    }

    /// Runs until every core reaches its instruction target or
    /// `max_cpu_cycles` elapse; returns the report (with wall-clock
    /// throughput of this call filled in).
    pub fn run(&mut self, max_cpu_cycles: u64) -> SimReport {
        let started = std::time::Instant::now();
        let start_cycle = self.cpu_cycle;
        // Sampled runs own the phase schedule.
        let sampled = self
            .cfg
            .sample
            .map(|plan| crate::sampling::drive(self, plan, max_cpu_cycles));
        if sampled.is_none() {
            self.run_serial(max_cpu_cycles);
        }
        // A sampled run the cycle cap stops mid-drain leaves cores and
        // controllers behind.
        self.settle();
        if self.cfg.validate_protocol {
            let now = self.mem_cycle;
            for mc in &mut self.mcs {
                mc.finish_validation(now);
            }
        }
        let mut r = self.report();
        if let Some(out) = sampled {
            // The plain counters only cover the last measured phase;
            // replace them with the per-window aggregates.
            r.ipc = out.ipc;
            r.mpki = out.mpki;
            r.finished = out.complete;
            r.samples = Some(out.stats);
        }
        r.wall_seconds = started.elapsed().as_secs_f64();
        if r.wall_seconds > 0.0 {
            r.sim_cycles_per_sec = (self.cpu_cycle - start_cycle) as f64 / r.wall_seconds;
        }
        r
    }

    /// The serial stepping loop under the configured engine: runs until
    /// every core reaches its current instruction target or
    /// `max_cpu_cycles` elapse. Factored out so the sampling driver can
    /// re-enter the detailed pipeline for each measured window.
    pub(crate) fn run_serial(&mut self, max_cpu_cycles: u64) {
        match self.cfg.engine {
            Engine::Naive => {
                while !self.cluster.done() && self.cpu_cycle < max_cpu_cycles {
                    self.step(false);
                }
            }
            Engine::EventDriven => {
                while !self.cluster.done() && self.cpu_cycle < max_cpu_cycles {
                    self.advance(max_cpu_cycles);
                }
            }
        }
        // Sampling phases read statistics and change targets between
        // runs.
        self.settle();
    }

    /// Brings every deferred core to the current cycle and charges
    /// every controller its idle cycles, so statistics can be read and
    /// phases changed.
    pub(crate) fn settle(&mut self) {
        self.cluster.settle(self.cpu_cycle);
        for (mc, charged) in self.mcs.iter_mut().zip(&mut self.mc_charged) {
            charge(mc, charged, self.mem_cycle);
        }
    }

    /// Like [`System::run`], but turns bad outcomes into typed errors: a
    /// core parked on a dry trace or any protocol violation recorded by
    /// the shadow validator fails the run.
    ///
    /// # Errors
    ///
    /// Returns [`CrowError::Trace`] for a parked core and
    /// [`CrowError::Protocol`] (with the first formatted violation) for
    /// validator findings.
    pub fn run_checked(&mut self, max_cpu_cycles: u64) -> Result<SimReport, CrowError> {
        let r = self.run(max_cpu_cycles);
        if let Some(&(_, e)) = self.cluster.trace_faults().first() {
            return Err(CrowError::Trace(e));
        }
        if r.violations > 0 {
            let first = self.mcs.iter().find_map(|mc| {
                mc.channel()
                    .validator()
                    .and_then(|v| v.violations().first())
                    .map(ToString::to_string)
            });
            return Err(CrowError::Protocol {
                violations: r.violations,
                first,
            });
        }
        Ok(r)
    }

    /// Builds the report for the current state.
    pub fn report(&self) -> SimReport {
        let n = self.cluster.num_cores();
        let mut mc = McStats::new();
        let mut commands = ChannelStats::new();
        let mut crow = CrowStats::new();
        let mut energy = EnergyCounter::new();
        let mut sched = SchedStats::new();
        let mut violations = 0u64;
        let mut hammer = self
            .hammer
            .as_ref()
            .map(HammerState::stats)
            .unwrap_or_default();
        for c in &self.mcs {
            mc.merge(c.stats());
            commands.merge(c.channel().stats());
            energy.merge(&c.energy());
            sched.merge(c.sched_stats());
            if let Some(s) = c.crow() {
                crow.merge(s.stats());
                hammer.detections += s.hammer_detections();
            }
            if let Some(v) = c.channel().validator() {
                violations += v.total_violations();
            }
        }
        hammer.mitigation_refreshes = mc.neighbor_refreshes;
        SimReport {
            ipc: (0..n).map(|i| self.cluster.ipc(i)).collect(),
            mpki: (0..n).map(|i| self.cluster.mpki(i)).collect(),
            cpu_cycles: self.cpu_cycle,
            mem_cycles: self.mem_cycle,
            mc,
            commands,
            crow,
            energy,
            finished: self.cluster.done(),
            violations,
            trace_faults: self.cluster.trace_faults().len() as u64,
            faults: self.fault_stats,
            sched,
            hammer,
            samples: None,
            wall_seconds: 0.0,
            sim_cycles_per_sec: 0.0,
        }
    }

    /// Asserts the data-integrity oracle saw no violations (requires
    /// `cfg.oracle`).
    ///
    /// # Panics
    ///
    /// Panics if any channel recorded a violation.
    pub fn assert_data_integrity(&self) {
        for mc in &self.mcs {
            if let Some(o) = mc.channel().oracle() {
                o.assert_clean();
            }
        }
    }
}

/// Charges `mc` the idle memory cycles from `*charged` up to `to`
/// ([`MemController::skip_idle`]). Between two calls that mutate a
/// controller its queues and open rows are constant, so one charge over
/// the gap equals that many idle ticks.
fn charge(mc: &mut MemController, charged: &mut u64, to: u64) {
    mc.skip_idle(to - *charged);
    *charged = to;
}

/// The checks on a whole [`SystemConfig`] that no part's own
/// `validate` makes.
fn check_config(cfg: &SystemConfig) -> Result<(), String> {
    if cfg.threads != 1 {
        return Err(format!(
            "threads = {}: the sharded engine was removed, so threads must be 1",
            cfg.threads
        ));
    }
    // The address mapper interleaves channels on address bits.
    if !cfg.channels.is_power_of_two() {
        return Err(format!(
            "channels = {}: must be a power of two",
            cfg.channels
        ));
    }
    if cfg.oracle && !cfg.mechanism.models_row_contents() {
        return Err(format!(
            "oracle cannot check {}: it does not model row contents",
            cfg.mechanism.label()
        ));
    }
    // The sampling fast-forward polls no injector, so a sampled run
    // would silently drop most of their injections.
    let injectors = [
        (cfg.hammer.is_some(), "hammer"),
        (cfg.fault_plan.is_some(), "fault_plan"),
        (cfg.vrt_interval_cycles.is_some(), "vrt_interval_cycles"),
    ];
    if let Some((_, name)) = injectors
        .into_iter()
        .find(|&(set, _)| set && cfg.sample.is_some())
    {
        return Err(format!(
            "sample cannot be combined with {name}: the fast-forward skips its injections"
        ));
    }
    let [vrt, drop] = periodic_intervals(cfg);
    for (interval, name) in [
        (vrt, "vrt_interval_cycles"),
        (drop, "fault_plan.drop_interval"),
    ] {
        if interval == Some(0) {
            return Err(format!("{name} must be positive"));
        }
    }
    Ok(())
}

/// The periodic injectors' intervals in CPU cycles: VRT weak-row
/// events, then command-bus drops.
fn periodic_intervals(cfg: &SystemConfig) -> [Option<u64>; 2] {
    [
        cfg.vrt_interval_cycles,
        cfg.fault_plan.map(|p| p.drop_interval),
    ]
}

/// The first CPU cycle after `now` at which a periodic injection fires
/// (multiples of each interval; cycle 0 never fires); `u64::MAX` when
/// none is configured.
fn next_injection_after(cfg: &SystemConfig, now: u64) -> u64 {
    periodic_intervals(cfg)
        .into_iter()
        .flatten()
        .map(|i| (now / i + 1) * i)
        .min()
        .unwrap_or(u64::MAX)
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("mechanism", &self.cfg.mechanism.label())
            .field("cpu_cycle", &self.cpu_cycle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Mechanism, SystemConfig};

    fn app(name: &str) -> &'static AppProfile {
        AppProfile::by_name(name).unwrap()
    }

    fn run_quick(mechanism: Mechanism, name: &str) -> SimReport {
        let mut cfg = SystemConfig::quick_test(mechanism);
        cfg.oracle = true;
        let mut sys = System::new(cfg, &[app(name)]);
        let r = sys.run(30_000_000);
        sys.assert_data_integrity();
        assert!(r.finished, "{name} under {mechanism:?} did not finish");
        r
    }

    #[test]
    fn baseline_run_finishes_with_sane_stats() {
        let r = run_quick(Mechanism::Baseline, "mcf");
        assert!(r.ipc[0] > 0.0 && r.ipc[0] <= 4.0);
        assert!(
            r.mpki[0] > 10.0,
            "mcf must be memory-intensive: {}",
            r.mpki[0]
        );
        assert!(r.mc.reads > 0);
        assert!(r.energy.total_nj() > 0.0);
    }

    #[test]
    fn crow_cache_beats_baseline_on_reuse_heavy_app() {
        let base = run_quick(Mechanism::Baseline, "mcf");
        let crow = run_quick(Mechanism::crow_cache(8), "mcf");
        assert!(crow.commands.issued(crow_dram::Command::ActT) > 0);
        assert!(
            crow.crow_hit_rate() > 0.3,
            "hit rate {}",
            crow.crow_hit_rate()
        );
        assert!(
            crow.ipc[0] > base.ipc[0],
            "CROW {} vs baseline {}",
            crow.ipc[0],
            base.ipc[0]
        );
    }

    #[test]
    fn ideal_cache_at_least_as_fast_as_crow8() {
        let crow = run_quick(Mechanism::crow_cache(8), "omnetpp");
        let cfg = SystemConfig::quick_test(Mechanism::IdealCache);
        let mut sys = System::new(cfg, &[app("omnetpp")]);
        let ideal = sys.run(30_000_000);
        assert!(
            ideal.ipc[0] >= crow.ipc[0] * 0.98,
            "ideal {} vs CROW-8 {}",
            ideal.ipc[0],
            crow.ipc[0]
        );
    }

    #[test]
    fn crow_ref_reduces_refreshes() {
        // Compare refresh counts over an identical simulated window.
        let count = |mech: Mechanism| -> u64 {
            let mut cfg = SystemConfig::quick_test(mech);
            cfg.cpu.target_insts = u64::MAX / 2; // never finishes
            let mut sys = System::new(cfg, &[app("libq")]);
            let r = sys.run(2_000_000);
            r.mc.refreshes
        };
        let base = count(Mechanism::Baseline);
        let cref = count(Mechanism::crow_ref());
        assert!(base > 10, "window too short: {base}");
        // Doubled interval: about half the refreshes.
        let ratio = cref as f64 / base as f64;
        assert!(
            (0.4..0.62).contains(&ratio),
            "ratio {ratio} ({cref}/{base})"
        );
    }

    #[test]
    fn salp_runs_and_overlaps() {
        let r = run_quick(
            Mechanism::Salp {
                subarrays: 8,
                open_page: true,
            },
            "mcf",
        );
        assert!(r.ipc[0] > 0.0);
    }

    #[test]
    fn tldram_runs() {
        let mut cfg = SystemConfig::quick_test(Mechanism::TlDram { near_rows: 8 });
        cfg.oracle = false; // timing-only model
        let mut sys = System::new(cfg, &[app("mcf")]);
        let r = sys.run(30_000_000);
        assert!(r.finished);
        assert!(r.ipc[0] > 0.0);
    }

    #[test]
    fn four_core_run_finishes() {
        let mut cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
        cfg.cpu.target_insts = 15_000;
        let apps = [app("mcf"), app("libq"), app("gcc"), app("povray")];
        let mut sys = System::new(cfg, &apps);
        let r = sys.run(80_000_000);
        assert!(r.finished);
        assert_eq!(r.ipc.len(), 4);
        for (i, &ipc) in r.ipc.iter().enumerate() {
            assert!(ipc > 0.0, "core {i} ipc");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
            let mut sys = System::new(cfg, &[app("milc")]);
            sys.run(30_000_000)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.mc.reads, b.mc.reads);
        assert_eq!(a.cpu_cycles, b.cpu_cycles);
    }

    #[test]
    fn vrt_injection_remaps_rows_at_runtime() {
        let run = |vrt| {
            let mut cfg = SystemConfig::quick_test(Mechanism::crow_combined());
            cfg.oracle = true;
            cfg.vrt_interval_cycles = vrt;
            let mut sys = System::new(cfg, &[app("mcf")]);
            let r = sys.run(30_000_000);
            assert!(r.finished);
            sys.assert_data_integrity();
            assert_eq!(sys.controllers()[0].crow().unwrap().refresh_multiplier(), 2);
            r
        };
        let quiet = run(None);
        let vrt = run(Some(20_000));
        assert_eq!(quiet.faults.vrt_injected, 0);
        assert!(vrt.faults.vrt_injected > 0, "VRT events should have fired");
        // Each new weak row is copied into a copy row with ACT-c (§4.2.3).
        let act_c = |r: &SimReport| r.commands.issued(crow_dram::Command::ActC);
        assert!(
            act_c(&vrt) > act_c(&quiet),
            "ACT-c {} with VRT vs {} without",
            act_c(&vrt),
            act_c(&quiet)
        );
    }

    #[test]
    fn workload_profiles_land_in_their_intensity_classes() {
        // The suite's generators must reproduce the paper's L/M/H
        // classification when actually simulated (one representative
        // app per class plus the boundary-heavy cases).
        use crow_workloads::Class;
        for name in ["mcf", "libq", "gcc", "astar", "povray", "gamess"] {
            let profile = AppProfile::by_name(name).unwrap();
            let mut cfg = SystemConfig::quick_test(Mechanism::Baseline);
            cfg.cpu.target_insts = 40_000;
            // Match the paper platform's LLC share for one core.
            cfg.cpu.llc_bytes = 8 << 20;
            let mut sys = System::new(cfg, &[profile]);
            sys.warm(20_000);
            let r = sys.run(200_000_000);
            assert!(r.finished, "{name}");
            let mpki = r.mpki[0];
            match profile.class {
                Class::H => assert!(mpki >= 8.0, "{name}: H-class mpki {mpki}"),
                Class::M => assert!((0.8..12.0).contains(&mpki), "{name}: M-class mpki {mpki}"),
                Class::L => assert!(mpki < 1.6, "{name}: L-class mpki {mpki}"),
            }
        }
    }

    #[test]
    fn ddr4_platform_runs_and_crow_still_helps() {
        let run = |mech| {
            let mut cfg = SystemConfig::ddr4(mech);
            cfg.cpu.target_insts = 30_000;
            cfg.oracle = true;
            let mut sys = System::new(cfg, &[app("mcf")]);
            let r = sys.run(40_000_000);
            sys.assert_data_integrity();
            assert!(r.finished);
            r
        };
        let base = run(Mechanism::Baseline);
        let crow = run(Mechanism::crow_cache(8));
        assert!(crow.commands.issued(crow_dram::Command::ActT) > 0);
        assert!(
            crow.ipc[0] > base.ipc[0] * 0.99,
            "CROW on DDR4: {} vs {}",
            crow.ipc[0],
            base.ipc[0]
        );
    }

    #[test]
    fn try_construction_reports_typed_errors() {
        let base = SystemConfig::quick_test(Mechanism::Baseline);
        let mut bad_dram = base.clone();
        bad_dram.dram.banks = 6;
        let mut bad_mc = base.clone();
        bad_mc.mc.read_q = 0;
        let zero_vrt = SystemConfig {
            vrt_interval_cycles: Some(0),
            ..base.clone()
        };
        let zero_drop = SystemConfig {
            fault_plan: Some(crate::fault::FaultPlan { drop_interval: 0 }),
            ..base.clone()
        };
        let bad_salp = SystemConfig::quick_test(Mechanism::Salp {
            subarrays: 7,
            open_page: false,
        });
        let mut bad_llc = base.clone();
        bad_llc.cpu.llc_bytes = 3 << 20;
        let three_channels = SystemConfig {
            channels: 3,
            ..base.clone()
        };
        for (cfg, want) in [
            (bad_dram, "invalid DramConfig"),
            (bad_salp, "invalid DramConfig"),
            (bad_mc, "invalid McConfig"),
            (
                bad_llc,
                "invalid CpuConfig: LLC set count must be a power of two",
            ),
            (zero_vrt, "vrt_interval_cycles must be positive"),
            (zero_drop, "fault_plan.drop_interval must be positive"),
            (three_channels, "channels = 3: must be a power of two"),
        ] {
            let e = System::try_new(cfg, &[app("mcf")]).unwrap_err();
            assert!(e.to_string().contains(want), "{e}");
        }

        let e = System::try_new(base, &[]).unwrap_err();
        assert!(e.to_string().contains("at least one application"), "{e}");
    }

    #[test]
    fn sampled_runs_reject_every_injector() {
        use crate::hammer::{AttackPattern, HammerScenario};
        let base = SystemConfig::quick_test(Mechanism::crow_cache(8));
        let attack = HammerScenario::new(AttackPattern::DoubleSided, 1000);
        let cases = [
            ("hammer", base.clone().with_hammer(attack)),
            (
                "fault_plan",
                SystemConfig {
                    fault_plan: Some(crate::fault::FaultPlan {
                        drop_interval: 10_000,
                    }),
                    ..base.clone()
                },
            ),
            (
                "vrt_interval_cycles",
                SystemConfig {
                    vrt_interval_cycles: Some(10_000),
                    ..base
                },
            ),
        ];
        for (name, mut cfg) in cases {
            assert!(
                System::try_new(cfg.clone(), &[app("mcf")]).is_ok(),
                "{name} alone"
            );
            cfg.sample = Some(crate::sampling::SamplePlan::default_profile());
            match System::try_new(cfg, &[app("mcf")]) {
                Err(CrowError::Config(e)) => assert!(e.reason.contains(name), "{e}"),
                other => panic!("sample + {name} must be a ConfigError, got {other:?}"),
            }
        }
    }

    #[test]
    fn dry_trace_parks_core_and_run_checked_reports_it() {
        use crow_cpu::{IterTrace, TraceEntry};
        // ~6000 instructions of trace against a 30 000-instruction
        // target: the trace runs dry mid-measurement.
        let mk = || {
            let src = IterTrace::try_new(
                (0..2000u64)
                    .map(|i| TraceEntry::load(2, (i % 512) * 64))
                    .collect::<Vec<_>>()
                    .into_iter(),
            )
            .unwrap();
            let cfg = SystemConfig::quick_test(Mechanism::Baseline);
            System::try_with_traces(cfg, vec![Box::new(src)]).unwrap()
        };
        // run() completes gracefully and reports the parked core.
        let mut sys = mk();
        let r = sys.run(10_000_000);
        assert!(r.finished, "parked cluster still terminates the run");
        assert_eq!(r.trace_faults, 1);
        assert_eq!(r.ipc[0], 0.0, "target never reached");
        // run_checked() surfaces it as a typed error.
        let mut sys = mk();
        let e = sys.run_checked(10_000_000).unwrap_err();
        assert!(
            matches!(
                e,
                crate::error::CrowError::Trace(crow_cpu::TraceError::Exhausted { .. })
            ),
            "{e}"
        );
        assert!(e.to_string().contains("trace exhausted"), "{e}");
    }

    #[test]
    fn warmup_reduces_cold_misses() {
        let cfg = SystemConfig::quick_test(Mechanism::Baseline);
        let mut cold = System::new(cfg.clone(), &[app("gcc")]);
        let rc = cold.run(30_000_000);
        let mut warm = System::new(cfg, &[app("gcc")]);
        warm.warm(50_000);
        let rw = warm.run(30_000_000);
        assert!(
            rw.mpki[0] <= rc.mpki[0] * 1.05,
            "{} vs {}",
            rw.mpki[0],
            rc.mpki[0]
        );
    }
}
