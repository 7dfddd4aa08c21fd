//! The adapter: every call the benchmark makes into the library goes
//! through this module, so a renamed API changes one file.
//!
//! Untraced ops call [`txrace::Detector::run`] itself. Traced ops call
//! [`run_traced`], which makes the same layer calls `Detector::run` makes
//! (lint, flow analysis, instrumentation, engine or TSan run) one at a
//! time inside spans; the harness checks that both give the same modeled
//! digest, so the decomposition cannot drift from the library unnoticed.
//! The engine runs through [`TxRaceEngine`] rather than
//! `Detector::run_instrumented`, because the latter derives the prune
//! table a second time from the instrumented program and a span around
//! it would count the flow analysis twice.

use txrace::{
    instrument, instrument_pruned, watch_sites, AdaptiveController, Detector, EngineConfig,
    InstrumentConfig, InstrumentedProgram, Knobs, LocksetConsumer, LoopcutMode, MayRacePairs,
    PanelConsumer, ProductionMode, RunConfig, RunOutcome, SchedKind, Scheme, SiteClassTable,
    StaticPruneMode, TxRaceEngine,
};
use txrace_hb::{FastTrack, ShadowMode, ShardPlan, ShardedFastTrack, VectorClockDetector};
use txrace_sim::{
    DirectRuntime, EventLog, FairSched, FanOutReport, Live, Machine, Program, RandomSched,
    RoundRobin, RunResult, Scheduler, StepLimit, SyncIndex, TraceConsumer,
};
use txrace_workloads::Workload;

use crate::trace::Tracer;

/// The detection schemes the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// Full TSan.
    Tsan,
    /// TxRace, Dyn loop-cut, no static pruning.
    TxRace,
    /// TxRace with flow-sensitive static pruning.
    TxRaceSaFlow,
    /// ProductionMode at a 1.2x budget.
    Production,
}

impl SchemeKind {
    /// Every scheme, in the order a `live` round runs them.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::Tsan,
        SchemeKind::TxRace,
        SchemeKind::TxRaceSaFlow,
        SchemeKind::Production,
    ];

    /// Short name for failure reports.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Tsan => "tsan",
            SchemeKind::TxRace => "txrace",
            SchemeKind::TxRaceSaFlow => "txrace+sa-flow",
            SchemeKind::Production => "production@1.2",
        }
    }

    /// Applies the scheme to a base configuration.
    pub fn configure(self, base: RunConfig) -> RunConfig {
        let mut cfg = base;
        match self {
            SchemeKind::Tsan => cfg.scheme = Scheme::Tsan,
            SchemeKind::TxRace => cfg.scheme = Scheme::txrace(),
            SchemeKind::TxRaceSaFlow => {
                cfg.scheme = Scheme::txrace();
                cfg = cfg.with_prune(StaticPruneMode::FullFlow);
            }
            SchemeKind::Production => cfg.scheme = Scheme::production(1.2),
        }
        cfg
    }
}

/// The run configuration of `w` under `kind` at `seed`.
pub fn app_config(w: &Workload, kind: SchemeKind, seed: u64) -> RunConfig {
    kind.configure(w.config(Scheme::Tsan, seed))
}

/// The run configuration of a generated program under `kind`.
pub fn plain_config(kind: SchemeKind, seed: u64) -> RunConfig {
    kind.configure(RunConfig::new(Scheme::Tsan, seed))
}

/// `Detector::run`: the untraced op.
pub fn detector_run(p: &Program, cfg: &RunConfig) -> RunOutcome {
    Detector::new(cfg.clone()).run(p)
}

/// `Detector::record`: one uncached recording.
pub fn record(p: &Program, cfg: &RunConfig) -> EventLog {
    Detector::new(cfg.clone()).record(p)
}

/// `Detector::run`, one layer call per span.
///
/// # Panics
///
/// Panics where `Detector::run` would (a program failing lint), and on
/// a scheme this benchmark does not run.
pub fn run_traced(p: &Program, cfg: &RunConfig, t: &mut Tracer) -> RunOutcome {
    let issues = t.span("sim.lint", |_| txrace_sim::lint(p));
    assert!(issues.is_empty(), "program failed the IR lint: {issues:?}");
    match &cfg.scheme {
        Scheme::Tsan => t.span("tsan.live", |_| tsan_live(p, cfg)),
        Scheme::TxRace(opts) => {
            assert_eq!(
                opts.loopcut,
                LoopcutMode::Dyn,
                "only Dyn loop-cut is decomposed"
            );
            let table = match cfg.knobs.prune {
                StaticPruneMode::Off => None,
                StaticPruneMode::FullFlow => {
                    Some(t.span("sa.flow", |_| SiteClassTable::analyze_flow(p)))
                }
                other => panic!("prune mode {other:?} is not decomposed"),
            };
            let icfg = InstrumentConfig::from_knobs(&cfg.knobs);
            let ip = t.span("instrument", |_| match &table {
                Some(tb) => instrument_pruned(p, &icfg, Some(tb)),
                None => instrument(p, &icfg),
            });
            t.count("instrument.regions", ip.region_count() as f64);
            let ecfg = engine_config(cfg, cfg.knobs, table, None, Vec::new());
            t.span("engine", |_| engine_run(&ip, ecfg, cfg))
        }
        Scheme::Production(mode) => {
            let (table, watch) = t.span("sa.flow", |_| {
                let table = SiteClassTable::analyze_flow(p);
                let watch = watch_sites(p, &table);
                (table, watch)
            });
            let knobs = Knobs {
                prune: StaticPruneMode::FullFlow,
                ..cfg.knobs
            };
            let icfg = InstrumentConfig::from_knobs(&knobs);
            let ip = t.span("instrument", |_| instrument_pruned(p, &icfg, Some(&table)));
            t.count("instrument.regions", ip.region_count() as f64);
            let ecfg = engine_config(cfg, knobs, Some(table), Some(*mode), watch);
            t.span("engine", |_| engine_run(&ip, ecfg, cfg))
        }
        other => panic!("scheme {other:?} is not decomposed"),
    }
}

/// The engine configuration `Detector::run` builds for a default-option
/// TxRace run (`production == None`) or a production run.
fn engine_config(
    cfg: &RunConfig,
    knobs: Knobs,
    prune: Option<SiteClassTable>,
    production: Option<ProductionMode>,
    watch: Vec<txrace_sim::SiteId>,
) -> EngineConfig {
    let epoch_events = match production {
        Some(_) => Some(
            cfg.telemetry_epochs
                .unwrap_or(AdaptiveController::EPOCH_EVENTS),
        ),
        None => cfg.telemetry_epochs,
    };
    EngineConfig {
        htm: cfg.htm,
        cost: cfg.cost,
        shadow_factor: cfg.shadow_factor,
        loopcut: LoopcutMode::Dyn,
        profile: None,
        max_retries: 3,
        shadow: cfg.shadow,
        track_fast_sync: true,
        conflict_hints: false,
        knobs,
        prune,
        epoch_events,
        production,
        watch,
    }
}

fn engine_run(ip: &InstrumentedProgram, ecfg: EngineConfig, cfg: &RunConfig) -> RunOutcome {
    let mut engine = TxRaceEngine::new(ip, ecfg);
    let mut machine = Machine::new(&ip.program);
    let run = machine.run_with_limit(&mut engine, sched(cfg).as_mut(), limit(cfg));
    let baseline_cycles = cfg.cost.baseline_cycles(&ip.program);
    let breakdown = engine.breakdown();
    RunOutcome {
        races: engine.races().clone(),
        breakdown,
        baseline_cycles,
        overhead: breakdown.overhead_vs(baseline_cycles),
        htm: Some(engine.htm_stats()),
        engine: Some(engine.stats()),
        checks: engine.checks(),
        telemetry: engine.take_telemetry(),
        memory: machine.memory().clone(),
        run,
    }
}

fn tsan_live(p: &Program, cfg: &RunConfig) -> RunOutcome {
    let consumer = Detector::new(cfg.clone()).consumer(p);
    let mut rt = Live::new(consumer);
    let mut machine = Machine::new(p);
    let run = machine.run_with_limit(&mut rt, sched(cfg).as_mut(), limit(cfg));
    let consumer = rt.into_inner();
    let baseline_cycles = cfg.cost.baseline_cycles(p);
    let breakdown = consumer.breakdown();
    RunOutcome {
        races: consumer.races().clone(),
        breakdown,
        baseline_cycles,
        overhead: breakdown.overhead_vs(baseline_cycles),
        htm: None,
        engine: None,
        checks: consumer.checked(),
        telemetry: None,
        memory: machine.memory().clone(),
        run,
    }
}

/// An uninstrumented `Machine::run` of `p` under `cfg`'s scheduler.
pub fn exec_uninstrumented(p: &Program, cfg: &RunConfig) -> RunResult {
    let mut machine = Machine::new(p);
    machine.run_with_limit(
        &mut DirectRuntime::default(),
        sched(cfg).as_mut(),
        limit(cfg),
    )
}

/// The scheduler `Detector` builds for `cfg` (its own is private).
fn sched(cfg: &RunConfig) -> Box<dyn Scheduler> {
    match cfg.sched {
        SchedKind::RoundRobin => Box::new(RoundRobin::new()),
        SchedKind::Random { stickiness } => Box::new(
            RandomSched::new(cfg.seed)
                .with_interrupts(cfg.interrupts)
                .with_stickiness(stickiness),
        ),
        SchedKind::Fair { jitter, slack } => Box::new(
            FairSched::new(cfg.seed, jitter)
                .with_slack(slack)
                .with_interrupts(cfg.interrupts),
        ),
    }
}

fn limit(cfg: &RunConfig) -> StepLimit {
    cfg.step_limit.map(StepLimit).unwrap_or_default()
}

/// `EventLog::to_bytes`.
pub fn encode(log: &EventLog) -> Vec<u8> {
    log.to_bytes()
}

/// `EventLog::from_bytes`.
pub fn decode(bytes: &[u8]) -> Result<EventLog, String> {
    EventLog::from_bytes(bytes)
}

/// Number of TSan configurations in the replay panel.
pub const PANEL_TSAN: usize = 12;
/// Panel index of full TSan.
pub const PANEL_FULL_TSAN: usize = 0;
/// Panel index of raw FastTrack.
pub const PANEL_FASTTRACK: usize = PANEL_TSAN;
/// Panel index of the vector-clock reference detector.
pub const PANEL_VCREF: usize = PANEL_TSAN + 1;

/// The replay panel for `w` at `seed`: full TSan, TSan sampling at
/// 0.0, 0.1, ..., 1.0, then FastTrack, vcref and the lockset baseline.
pub fn panel(w: &Workload, seed: u64) -> Vec<PanelConsumer> {
    let tsan = |scheme: Scheme| {
        PanelConsumer::Tsan(Detector::new(w.config(scheme, seed)).consumer(&w.program))
    };
    let n = w.program.thread_count();
    let mut out = vec![tsan(Scheme::Tsan)];
    out.extend((0..=10).map(|tenths| {
        tsan(Scheme::TsanSampling {
            rate: f64::from(tenths) / 10.0,
        })
    }));
    out.push(PanelConsumer::FastTrack(FastTrack::new(
        n,
        ShadowMode::Exact,
    )));
    out.push(PanelConsumer::VcRef(VectorClockDetector::new(n)));
    out.push(PanelConsumer::Lockset(LocksetConsumer::new(
        n,
        txrace::CostModel::default(),
    )));
    out
}

/// `fan_out` of `consumers` over `log` at `width`.
pub fn fan_out(
    log: &EventLog,
    consumers: Vec<PanelConsumer>,
    width: usize,
) -> Vec<FanOutReport<PanelConsumer>> {
    txrace_sim::fan_out(log, consumers, width)
}

/// `SyncIndex::of`.
pub fn sync_index(log: &EventLog) -> SyncIndex {
    SyncIndex::of(log)
}

/// `ShardPlan::with_sync`: routes the accesses into `shards` slices.
pub fn partition(sync: SyncIndex, log: &EventLog, shards: usize) -> ShardPlan {
    ShardPlan::with_sync(sync, log, shards)
}

/// `ShardedFastTrack::run_with_plan` on scoped threads.
pub fn sharded_fasttrack(plan: &ShardPlan) -> txrace_hb::ShardedFtOutcome {
    ShardedFastTrack::new(plan.threads(), plan.shards()).run_with_plan(plan)
}

/// `EventLog::replay` of one consumer on the calling thread.
pub fn replay_solo<C: TraceConsumer>(log: &EventLog, mut consumer: C) -> C {
    log.replay(&mut consumer);
    consumer
}

/// The full-TSan consumer `Detector` builds for `w` at `seed`.
pub fn tsan_consumer(w: &Workload, seed: u64) -> txrace::TsanConsumer {
    Detector::new(w.config(Scheme::Tsan, seed)).consumer(&w.program)
}

/// The `hb` lockset detector replayed over `log`.
pub fn lockset_replay(log: &EventLog, threads: usize) -> txrace_hb::Lockset {
    replay_solo(log, txrace_hb::Lockset::new(threads))
}

/// Static pruned-site fraction of the flow-sensitive prune table.
pub fn static_pruned_fraction(p: &Program) -> f64 {
    SiteClassTable::analyze_flow(p)
        .stats(p)
        .static_pruned_fraction()
}

/// Whether the static may-race candidates of `p` cover `races`.
pub fn may_race_covers(p: &Program, races: &txrace_hb::RaceSet) -> bool {
    MayRacePairs::analyze(p).covers(races)
}

/// Raw FastTrack (exact shadow) replayed over `log`.
pub fn fasttrack_replay(log: &EventLog, threads: usize) -> FastTrack {
    replay_solo(log, FastTrack::new(threads, ShadowMode::Exact))
}

/// The vector-clock reference detector replayed over `log`.
pub fn vcref_replay(log: &EventLog, threads: usize) -> VectorClockDetector {
    replay_solo(log, VectorClockDetector::new(threads))
}

/// Worker threads the machine offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
