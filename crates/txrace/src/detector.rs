//! The public façade: configure a detection scheme, run a program, get a
//! [`RunOutcome`] with races, transaction statistics, and the cycle
//! breakdown.

use txrace_hb::{RaceSet, ShadowMode};
use txrace_htm::{HtmConfig, HtmStats};
use txrace_sim::{
    EventLog, FairSched, InterruptModel, Live, Machine, Program, RandomSched, RoundRobin,
    RunResult, RunStatus, Scheduler, StepLimit,
};

use crate::baselines::TsanConsumer;
use crate::control::{AdaptiveController, Knobs, ProductionMode, Telemetry};
use crate::cost::{CostModel, CycleBreakdown};
use crate::engine::{EngineConfig, EngineStats, TxRaceEngine};
use crate::instrument::{instrument, instrument_pruned, InstrumentConfig, InstrumentedProgram};
use crate::loopcut::{LoopcutMode, LoopcutProfile};
use crate::sa::{SiteClassTable, StaticPruneMode};

/// TxRace-specific options. Runtime tunables (the `K` threshold, the
/// slow-path sampling rate, the loop-cut initial threshold, the prune
/// mode) live in [`RunConfig::knobs`], not here.
#[derive(Debug, Clone)]
pub struct TxRaceOpts {
    /// Loop-cut scheme (`NoOpt` / `Dyn` / `Prof`).
    pub loopcut: LoopcutMode,
    /// Transient-abort retries before the slow path.
    pub max_retries: u32,
    /// Profile for [`LoopcutMode::Prof`]; auto-collected (one Dyn run on a
    /// derived seed) when absent.
    pub profile: Option<LoopcutProfile>,
    /// Track happens-before of sync ops on the fast path (§5). Disable
    /// only for the ablation study — false positives appear.
    pub track_fast_sync: bool,
    /// Extension: conflict-address-directed slow path (requires
    /// [`txrace_htm::HtmConfig::report_conflict_address`]).
    pub conflict_hints: bool,
}

impl Default for TxRaceOpts {
    fn default() -> Self {
        TxRaceOpts {
            loopcut: LoopcutMode::Dyn,
            max_retries: 3,
            profile: None,
            track_fast_sync: true,
            conflict_hints: false,
        }
    }
}

/// Which detector to run.
#[derive(Debug, Clone)]
pub enum Scheme {
    /// Full software happens-before checking (the TSan baseline).
    Tsan,
    /// TSan with per-access sampling at the given rate in `[0, 1]`.
    TsanSampling {
        /// Fraction of dynamic accesses checked.
        rate: f64,
    },
    /// The TxRace two-phase detector.
    TxRace(TxRaceOpts),
    /// TxRace + flow-sensitive static pruning under an adaptive overhead
    /// budget: the deploy-everywhere configuration. Runs with epoch
    /// telemetry and the [`AdaptiveController`] re-tuning the knobs
    /// online; the outcome carries the telemetry stream.
    Production(ProductionMode),
}

impl Scheme {
    /// TxRace with default options (Dyn loop-cut, `K = 5`).
    pub fn txrace() -> Scheme {
        Scheme::TxRace(TxRaceOpts::default())
    }

    /// TxRace with a specific loop-cut mode.
    pub fn txrace_loopcut(mode: LoopcutMode) -> Scheme {
        Scheme::TxRace(TxRaceOpts {
            loopcut: mode,
            ..TxRaceOpts::default()
        })
    }

    /// Production mode with the given overhead budget (e.g. `1.2` allows
    /// 20% extra cycles over the uninstrumented baseline).
    pub fn production(budget: f64) -> Scheme {
        Scheme::Production(ProductionMode { budget })
    }
}

/// Scheduling policy for the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedKind {
    /// Deterministic round-robin (no interrupts ever fire).
    RoundRobin,
    /// Seeded random with burst stickiness in `[0, 1)`.
    Random {
        /// Probability of keeping the running thread each step.
        stickiness: f64,
    },
    /// Fair (parallel-cores) scheduling with a random-jitter fraction in
    /// `[0, 1]` and a fairness slack (bounded random-walk amplitude of
    /// relative thread positions).
    Fair {
        /// Probability of a uniformly random pick.
        jitter: f64,
        /// Fairness slack in steps.
        slack: u64,
    },
}

/// Full configuration of one detection run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Detector selection.
    pub scheme: Scheme,
    /// Seed for scheduling (and sampling, shifted).
    pub seed: u64,
    /// Scheduler policy.
    pub sched: SchedKind,
    /// OS interrupt injection (drives unknown/retry aborts).
    pub interrupts: InterruptModel,
    /// Simulated HTM parameters.
    pub htm: HtmConfig,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Workload-specific TSan shadow-cost multiplier.
    pub shadow_factor: f64,
    /// Slow-path shadow-memory configuration.
    pub shadow: ShadowMode,
    /// Optional interpreter step limit.
    pub step_limit: Option<u64>,
    /// Control-plane knobs: the `K` threshold, sampling rate, loop-cut
    /// initial threshold, and static pruning mode, consumed uniformly by
    /// instrumentation, engine, loop-cut learner, and baselines.
    pub knobs: Knobs,
    /// Emit per-epoch [`Telemetry`] with this nominal epoch length in
    /// executed operations (production runs always emit telemetry,
    /// defaulting to [`AdaptiveController::EPOCH_EVENTS`]).
    pub telemetry_epochs: Option<u64>,
}

impl RunConfig {
    /// A configuration with sensible defaults: fair (parallel-cores)
    /// scheduling with light jitter and no interrupt injection.
    pub fn new(scheme: Scheme, seed: u64) -> Self {
        RunConfig {
            scheme,
            seed,
            sched: SchedKind::Fair {
                jitter: 0.1,
                slack: 0,
            },
            interrupts: InterruptModel::NONE,
            htm: HtmConfig::default(),
            cost: CostModel::default(),
            shadow_factor: 1.0,
            shadow: ShadowMode::Exact,
            step_limit: None,
            knobs: Knobs::default(),
            telemetry_epochs: None,
        }
    }

    /// Sets the interrupt model.
    pub fn with_interrupts(mut self, m: InterruptModel) -> Self {
        self.interrupts = m;
        self
    }

    /// Sets the HTM parameters.
    pub fn with_htm(mut self, htm: HtmConfig) -> Self {
        self.htm = htm;
        self
    }

    /// Sets the workload shadow factor.
    pub fn with_shadow_factor(mut self, f: f64) -> Self {
        self.shadow_factor = f;
        self
    }

    /// Sets the scheduler policy.
    pub fn with_sched(mut self, s: SchedKind) -> Self {
        self.sched = s;
        self
    }

    /// Sets the static race-freedom pruning mode (a knob).
    pub fn with_prune(mut self, p: StaticPruneMode) -> Self {
        self.knobs.prune = p;
        self
    }

    /// Replaces the full control-plane knob set.
    pub fn with_knobs(mut self, knobs: Knobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Requests per-epoch telemetry with the given epoch length.
    pub fn with_telemetry(mut self, epoch_events: u64) -> Self {
        self.telemetry_epochs = Some(epoch_events);
        self
    }
}

/// Everything one detection run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Distinct static races reported.
    pub races: RaceSet,
    /// Cycle breakdown by overhead category.
    pub breakdown: CycleBreakdown,
    /// Uninstrumented baseline cycles of the program.
    pub baseline_cycles: u64,
    /// `breakdown.total() / baseline_cycles`.
    pub overhead: f64,
    /// HTM statistics (TxRace runs only).
    pub htm: Option<HtmStats>,
    /// Engine statistics (TxRace runs only).
    pub engine: Option<EngineStats>,
    /// Software access checks performed.
    pub checks: u64,
    /// Epoch telemetry ([`RunConfig::with_telemetry`] or production
    /// runs; `None` otherwise).
    pub telemetry: Option<Telemetry>,
    /// Final shared-memory state of the run.
    pub memory: txrace_sim::Memory,
    /// Interpreter result.
    pub run: RunResult,
}

impl RunOutcome {
    /// True if the program ran to completion.
    pub fn completed(&self) -> bool {
        self.run.status == RunStatus::Done
    }
}

/// Runs detection schemes over programs.
#[derive(Debug, Clone)]
pub struct Detector {
    cfg: RunConfig,
}

impl Detector {
    /// Creates a detector with the given configuration.
    pub fn new(cfg: RunConfig) -> Self {
        Detector { cfg }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    fn make_sched(&self, seed: u64) -> Box<dyn Scheduler> {
        match self.cfg.sched {
            SchedKind::RoundRobin => Box::new(RoundRobin::new()),
            SchedKind::Random { stickiness } => Box::new(
                RandomSched::new(seed)
                    .with_interrupts(self.cfg.interrupts)
                    .with_stickiness(stickiness),
            ),
            SchedKind::Fair { jitter, slack } => Box::new(
                FairSched::new(seed, jitter)
                    .with_slack(slack)
                    .with_interrupts(self.cfg.interrupts),
            ),
        }
    }

    fn limit(&self) -> StepLimit {
        self.cfg.step_limit.map(StepLimit).unwrap_or_default()
    }

    /// The prune table for `p`, when the prune knob is enabled.
    fn prune_table(&self, p: &Program) -> Option<SiteClassTable> {
        match self.cfg.knobs.prune {
            StaticPruneMode::Off => None,
            StaticPruneMode::ChecksOnly | StaticPruneMode::Full => Some(SiteClassTable::analyze(p)),
            StaticPruneMode::FullFlow => Some(SiteClassTable::analyze_flow(p)),
        }
    }

    /// Runs the configured scheme on `program`. TxRace schemes instrument
    /// internally; to reuse an instrumented program across runs, use
    /// [`Detector::run_instrumented`].
    ///
    /// # Panics
    ///
    /// Panics if the program fails the structural IR lint
    /// ([`txrace_sim::lint()`]): unbalanced locking, joins of never-spawned
    /// threads, or disagreeing barrier arrival counts would make both the
    /// static analyses and the run itself meaningless.
    pub fn run(&self, program: &Program) -> RunOutcome {
        let issues = txrace_sim::lint(program);
        assert!(
            issues.is_empty(),
            "program failed the IR lint:\n{}",
            issues
                .iter()
                .map(|i| format!("  - {i}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        match &self.cfg.scheme {
            Scheme::Tsan | Scheme::TsanSampling { .. } => {
                let table = self.prune_table(program);
                self.run_tsan(program, table)
            }
            Scheme::TxRace(opts) => {
                let table = self.prune_table(program);
                let icfg = InstrumentConfig::from_knobs(&self.cfg.knobs);
                let ip = match self.cfg.knobs.prune {
                    StaticPruneMode::Full | StaticPruneMode::FullFlow => {
                        instrument_pruned(program, &icfg, table.as_ref())
                    }
                    _ => instrument(program, &icfg),
                };
                self.run_txrace(&ip, opts, table)
            }
            Scheme::Production(mode) => self.run_production(program, *mode),
        }
    }

    /// Runs a TxRace scheme on an already instrumented program. With
    /// pruning enabled the class table is derived from the instrumented
    /// program (original sites are preserved by the pass, so the verdicts
    /// match the uninstrumented analysis).
    ///
    /// # Panics
    ///
    /// Panics if the configured scheme is not [`Scheme::TxRace`].
    pub fn run_instrumented(&self, ip: &InstrumentedProgram) -> RunOutcome {
        match &self.cfg.scheme {
            Scheme::TxRace(opts) => {
                let table = self.prune_table(&ip.program);
                self.run_txrace(ip, opts, table)
            }
            other => panic!("run_instrumented requires a TxRace scheme, got {other:?}"),
        }
    }

    /// Collects a loop-cut profile: one Dyn-mode run on `profile_seed`,
    /// exporting the learned thresholds (the paper's offline profiling run
    /// with representative input).
    pub fn profile_loopcut(&self, ip: &InstrumentedProgram, profile_seed: u64) -> LoopcutProfile {
        let opts = match &self.cfg.scheme {
            Scheme::TxRace(o) => o.clone(),
            _ => TxRaceOpts::default(),
        };
        let cfg = EngineConfig {
            htm: self.cfg.htm,
            cost: self.cfg.cost,
            shadow_factor: self.cfg.shadow_factor,
            loopcut: LoopcutMode::Dyn,
            profile: None,
            max_retries: opts.max_retries,
            shadow: self.cfg.shadow,
            track_fast_sync: opts.track_fast_sync,
            conflict_hints: opts.conflict_hints,
            knobs: self.cfg.knobs,
            prune: None,
            epoch_events: None,
            production: None,
            watch: Vec::new(),
        };
        let mut engine = TxRaceEngine::new(ip, cfg);
        let mut machine = Machine::new(&ip.program);
        let mut sched = self.make_sched(profile_seed);
        let _ = machine.run_with_limit(&mut engine, sched.as_mut(), self.limit());
        engine.loopcut_profile()
    }

    fn run_txrace(
        &self,
        ip: &InstrumentedProgram,
        opts: &TxRaceOpts,
        prune: Option<SiteClassTable>,
    ) -> RunOutcome {
        let profile = match (opts.loopcut, &opts.profile) {
            (LoopcutMode::Prof, Some(p)) => Some(p.clone()),
            (LoopcutMode::Prof, None) => {
                // Auto-profile on a derived seed (a "representative input"
                // run in the paper's methodology).
                Some(self.profile_loopcut(ip, self.cfg.seed.wrapping_add(0x9E37_79B9)))
            }
            _ => None,
        };
        let cfg = EngineConfig {
            htm: self.cfg.htm,
            cost: self.cfg.cost,
            shadow_factor: self.cfg.shadow_factor,
            loopcut: opts.loopcut,
            profile,
            max_retries: opts.max_retries,
            shadow: self.cfg.shadow,
            track_fast_sync: opts.track_fast_sync,
            conflict_hints: opts.conflict_hints,
            knobs: self.cfg.knobs,
            prune,
            epoch_events: self.cfg.telemetry_epochs,
            production: None,
            watch: Vec::new(),
        };
        self.finish_engine_run(ip, cfg)
    }

    /// Runs the production scheme: TxRace with flow-sensitive pruning,
    /// the statically derived watch set, epoch telemetry, and the
    /// adaptive controller holding the budget.
    fn run_production(&self, program: &Program, mode: ProductionMode) -> RunOutcome {
        // Production always deploys the strongest static analysis: the
        // flow-sensitive prune table plus the watch set over the
        // surviving may-race candidate sites.
        let table = SiteClassTable::analyze_flow(program);
        let watch = crate::sa::watch_sites(program, &table);
        let knobs = Knobs {
            prune: StaticPruneMode::FullFlow,
            ..self.cfg.knobs
        };
        let icfg = InstrumentConfig::from_knobs(&knobs);
        let ip = instrument_pruned(program, &icfg, Some(&table));
        let cfg = EngineConfig {
            htm: self.cfg.htm,
            cost: self.cfg.cost,
            shadow_factor: self.cfg.shadow_factor,
            loopcut: LoopcutMode::Dyn,
            profile: None,
            max_retries: 3,
            shadow: self.cfg.shadow,
            track_fast_sync: true,
            conflict_hints: false,
            knobs,
            prune: Some(table),
            epoch_events: Some(
                self.cfg
                    .telemetry_epochs
                    .unwrap_or(AdaptiveController::EPOCH_EVENTS),
            ),
            production: Some(mode),
            watch,
        };
        self.finish_engine_run(&ip, cfg)
    }

    /// Drives an engine configuration to completion and assembles the
    /// outcome (shared tail of the TxRace and production schemes).
    fn finish_engine_run(&self, ip: &InstrumentedProgram, cfg: EngineConfig) -> RunOutcome {
        let mut engine = TxRaceEngine::new(ip, cfg);
        let mut machine = Machine::new(&ip.program);
        let mut sched = self.make_sched(self.cfg.seed);
        let run = machine.run_with_limit(&mut engine, sched.as_mut(), self.limit());
        let baseline_cycles = self.cfg.cost.baseline_cycles(&ip.program);
        let breakdown = engine.breakdown();
        let telemetry = engine.take_telemetry();
        RunOutcome {
            races: engine.races().clone(),
            breakdown,
            baseline_cycles,
            overhead: breakdown.overhead_vs(baseline_cycles),
            htm: Some(engine.htm_stats()),
            engine: Some(engine.stats()),
            checks: engine.checks(),
            telemetry,
            memory: machine.memory().clone(),
            run,
        }
    }

    fn run_tsan(&self, program: &Program, prune: Option<SiteClassTable>) -> RunOutcome {
        let mut consumer = self.tsan_consumer_with(program.thread_count(), prune);
        let mut rt = Live::new(consumer);
        let mut machine = Machine::new(program);
        let mut sched = self.make_sched(self.cfg.seed);
        let run = machine.run_with_limit(&mut rt, sched.as_mut(), self.limit());
        consumer = rt.into_inner();
        self.tsan_outcome(
            consumer,
            self.cfg.cost.baseline_cycles(program),
            machine.memory().clone(),
            run,
        )
    }

    fn tsan_consumer_with(&self, threads: usize, prune: Option<SiteClassTable>) -> TsanConsumer {
        let mut c = match &self.cfg.scheme {
            // The plain-TSan baseline honours the sampling knob (default
            // `None`: full checking).
            Scheme::Tsan => TsanConsumer::from_knobs(
                threads,
                self.cfg.cost,
                self.cfg.shadow_factor,
                self.cfg.shadow,
                &self.cfg.knobs,
                self.cfg.seed.wrapping_add(0x517C_C1B7),
            ),
            Scheme::TsanSampling { rate } => TsanConsumer::sampling(
                threads,
                self.cfg.cost,
                self.cfg.shadow_factor,
                self.cfg.shadow,
                *rate,
                self.cfg.seed.wrapping_add(0x517C_C1B7),
            ),
            Scheme::TxRace(_) | Scheme::Production(_) => {
                panic!("engine schemes are not trace consumers; use run()")
            }
        };
        if let Some(table) = prune {
            c = c.with_prune(table);
        }
        c
    }

    fn tsan_outcome(
        &self,
        consumer: TsanConsumer,
        baseline_cycles: u64,
        memory: txrace_sim::Memory,
        run: RunResult,
    ) -> RunOutcome {
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
            memory,
            run,
        }
    }

    /// Records `program` into a replayable [`EventLog`] under the
    /// configured scheduler and seed, with no detector attached.
    ///
    /// The recorded stream is exactly what any *pure observer* (the TSan
    /// baselines, the raw HB detectors) would see live: observers never
    /// redirect execution, so the interleaving is fully determined by
    /// `(program, sched, seed)`. Record once, then fan
    /// [`Detector::replay`] over the log as many times as needed — e.g.
    /// one replay per sampling rate, in parallel.
    ///
    /// # Panics
    ///
    /// Panics if the program fails the structural IR lint, exactly like
    /// [`Detector::run`].
    pub fn record(&self, program: &Program) -> EventLog {
        let issues = txrace_sim::lint(program);
        assert!(
            issues.is_empty(),
            "program failed the IR lint:\n{}",
            issues
                .iter()
                .map(|i| format!("  - {i}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        let mut sched = self.make_sched(self.cfg.seed);
        txrace_sim::record_run(program, sched.as_mut(), self.limit())
    }

    /// Builds the configured scheme's trace consumer for `program` —
    /// sampling seed, shadow factor, and prune table all derived exactly
    /// as [`Detector::run`] would. Feed it to [`Detector::replay`].
    ///
    /// # Panics
    ///
    /// Panics if the configured scheme is [`Scheme::TxRace`] or
    /// [`Scheme::Production`]: the TxRace engine steers execution
    /// (rollbacks, re-execution) and therefore cannot run from a fixed
    /// trace.
    pub fn consumer(&self, program: &Program) -> TsanConsumer {
        self.tsan_consumer_with(program.thread_count(), self.prune_table(program))
    }

    /// Replays a recorded log through `consumer` and assembles the same
    /// [`RunOutcome`] a live [`Detector::run`] would have produced —
    /// bit-identical races, breakdown, check counts, memory, and result —
    /// provided the log was recorded under the same `(program, sched,
    /// seed)` (see [`Detector::record`]).
    pub fn replay(&self, log: &EventLog, mut consumer: TsanConsumer) -> RunOutcome {
        log.replay(&mut consumer);
        self.outcome_of_replayed(consumer, log)
    }

    /// Assembles the [`RunOutcome`] for a consumer that has *already*
    /// been replayed over `log` — the tail half of [`Detector::replay`],
    /// split out so parallel drivers ([`txrace_sim::fan_out`]) can run
    /// many consumers over one log and assemble outcomes afterwards.
    /// `Detector::replay(log, c)` ≡
    /// `{ log.replay(&mut c); Detector::outcome_of_replayed(c, log) }`.
    pub fn outcome_of_replayed(&self, consumer: TsanConsumer, log: &EventLog) -> RunOutcome {
        self.tsan_outcome(
            consumer,
            self.cfg.cost.baseline_cycles_of_census(&log.census()),
            log.final_memory().clone(),
            log.result().clone(),
        )
    }
}

/// Computes recall: the fraction of `truth`'s races also found in `found`
/// (the paper's effectiveness metric, §8.4, with TSan's reports as the
/// "real data races").
pub fn recall(found: &RaceSet, truth: &RaceSet) -> f64 {
    if truth.distinct_count() == 0 {
        return 1.0;
    }
    let hit = truth.pairs().filter(|p| found.contains(p.a, p.b)).count();
    hit as f64 / truth.distinct_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_hb::{RacePair, RaceSet};
    use txrace_sim::{ProgramBuilder, SiteId};

    #[test]
    fn recall_of_empty_truth_is_one() {
        assert_eq!(recall(&RaceSet::new(), &RaceSet::new()), 1.0);
    }

    #[test]
    fn recall_counts_hits() {
        use txrace_hb::{AccessInfo, AccessKind, RaceReport};
        let mk = |a: u32, b: u32| RaceReport {
            addr: txrace_sim::Addr(0x100),
            prior: AccessInfo {
                site: SiteId(a),
                thread: txrace_sim::ThreadId(0),
                kind: AccessKind::Write,
            },
            current: AccessInfo {
                site: SiteId(b),
                thread: txrace_sim::ThreadId(1),
                kind: AccessKind::Write,
            },
        };
        let truth: RaceSet = [mk(1, 2), mk(3, 4)].into_iter().collect();
        let found: RaceSet = [mk(1, 2)].into_iter().collect();
        assert_eq!(recall(&found, &truth), 0.5);
        let _ = RacePair::new(SiteId(1), SiteId(2));
    }

    #[test]
    fn tsan_and_txrace_complete_on_simple_program() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t).compute(5).write(x, t as u64).compute(5);
        }
        let p = b.build();
        for scheme in [Scheme::Tsan, Scheme::txrace()] {
            let out = Detector::new(RunConfig::new(scheme, 3)).run(&p);
            assert!(out.completed());
            assert!(out.overhead >= 1.0);
        }
    }
}
