//! The record/replay correctness contract: for every *pure observer*
//! detector, analyzing a recorded trace is bit-identical to analyzing the
//! live run it was recorded from.
//!
//! Observers never roll back or redirect execution, so the interleaving
//! is fully determined by `(program, scheduler, seed)` — which makes the
//! recorded event stream exactly what the live detector saw, method call
//! for method call. Checked here on all bundled workloads (races,
//! breakdowns, check counts, sampling decisions, final memory), on the
//! sampling sweeps behind Figures 11–13, and on randomly generated
//! programs; every sweep is also fanned out concurrently over its one
//! recording and must match the serial replay.

use proptest::prelude::*;
use txrace::{Detector, RunConfig, RunOutcome, Scheme};
use txrace_hb::{FastTrack, Lockset, ShadowMode, VectorClockDetector};
use txrace_sim::{
    fan_out, record_run, FairSched, Live, Machine, Program, StepLimit, TraceConsumer,
};
use txrace_workloads::{all_workloads, by_name, random_program, GenConfig};

/// Asserts every field of the outcome that replay promises to reproduce.
fn assert_outcomes_identical(app: &str, live: &RunOutcome, replayed: &RunOutcome) {
    assert_eq!(
        live.races.reports(),
        replayed.races.reports(),
        "{app}: race sets differ"
    );
    assert_eq!(
        live.breakdown, replayed.breakdown,
        "{app}: cycle ledgers differ"
    );
    assert_eq!(live.baseline_cycles, replayed.baseline_cycles, "{app}");
    assert!(
        (live.overhead - replayed.overhead).abs() < 1e-12,
        "{app}: overheads differ"
    );
    assert_eq!(live.checks, replayed.checks, "{app}: check counts differ");
    assert_eq!(live.memory, replayed.memory, "{app}: final memory differs");
    assert_eq!(live.run, replayed.run, "{app}: run results differ");
}

/// The schemes most tests compare: full TSan and sampling rates that
/// include Figure 11's 10% and 50%.
const SCHEMES: [Scheme; 5] = [
    Scheme::Tsan,
    Scheme::TsanSampling { rate: 0.1 },
    Scheme::TsanSampling { rate: 0.3 },
    Scheme::TsanSampling { rate: 0.5 },
    Scheme::TsanSampling { rate: 0.85 },
];

/// Live-vs-replayed comparison of the full detector pipeline on `p`,
/// scheme by scheme, then every scheme's consumer fanned out over the
/// same recording at once against its serial replay.
fn check_detector_schemes(
    app: &str,
    p: &Program,
    schemes: &[Scheme],
    cfg_of: impl Fn(Scheme) -> RunConfig,
) {
    // One recording serves every scheme: scheduling never depends on it.
    let log = Detector::new(cfg_of(Scheme::Tsan)).record(p);
    let detectors: Vec<Detector> = schemes
        .iter()
        .map(|s| Detector::new(cfg_of(s.clone())))
        .collect();
    let serial: Vec<RunOutcome> = detectors
        .iter()
        .zip(schemes)
        .map(|(d, scheme)| {
            let live = d.run(p);
            let replayed = d.replay(&log, d.consumer(p));
            assert_outcomes_identical(&format!("{app} {scheme:?}"), &live, &replayed);
            replayed
        })
        .collect();
    let consumers = detectors.iter().map(|d| d.consumer(p)).collect();
    let fanned = fan_out(&log, consumers, schemes.len());
    for (((r, d), want), scheme) in fanned.into_iter().zip(&detectors).zip(&serial).zip(schemes) {
        let got = d.outcome_of_replayed(r.consumer, &log);
        assert_outcomes_identical(&format!("{app} {scheme:?} fan-out"), want, &got);
    }
}

/// Every bundled workload at seed 42 with four workers; this includes
/// Figure 11's grid (its nine racy apps under TSan, 10% and 50%).
#[test]
fn all_workloads_replay_identically() {
    for w in all_workloads(4) {
        check_detector_schemes(w.name, &w.program, &SCHEMES, |scheme| w.config(scheme, 42));
    }
}

#[test]
fn replay_equivalence_holds_across_seeds() {
    for seed in [0, 7, 1234] {
        for name in ["bodytrack", "vips", "streamcluster"] {
            let w = by_name(name, 3).expect("bundled workload");
            check_detector_schemes(name, &w.program, &SCHEMES, |scheme| w.config(scheme, seed));
        }
    }
}

/// Figures 12 and 13's grid: bodytrack under TSan and every sampling
/// rate from 0% to 100% in steps of 10%, at Figure 13's seeds and
/// Figure 12's seed 42.
#[test]
fn fig12_fig13_rate_sweep_replays_identically() {
    let mut schemes = vec![Scheme::Tsan];
    schemes.extend((0..=10).map(|tenths| Scheme::TsanSampling {
        rate: f64::from(tenths) / 10.0,
    }));
    let w = by_name("bodytrack", 4).expect("bundled workload");
    for seed in [0, 1, 2, 42] {
        check_detector_schemes("bodytrack", &w.program, &schemes, |scheme| {
            w.config(scheme, seed)
        });
    }
}

/// Drives a raw consumer live under a fair scheduler, returning it.
fn drive_live<C: TraceConsumer>(p: &Program, seed: u64, consumer: C) -> C {
    let mut rt = Live::new(consumer);
    let mut m = Machine::new(p);
    let mut sched = FairSched::new(seed, 0.1);
    m.run_with_limit(&mut rt, &mut sched, StepLimit::default());
    rt.into_inner()
}

#[test]
fn raw_hb_and_lockset_detectors_replay_identically() {
    for w in all_workloads(3) {
        let n = w.program.thread_count();
        let mut sched = FairSched::new(9, 0.1);
        let log = record_run(&w.program, &mut sched, StepLimit::default());

        let live = drive_live(&w.program, 9, FastTrack::new(n, ShadowMode::Exact));
        let mut rep = FastTrack::new(n, ShadowMode::Exact);
        log.replay(&mut rep);
        assert_eq!(
            live.races().reports(),
            rep.races().reports(),
            "{}: FastTrack",
            w.name
        );

        let live = drive_live(&w.program, 9, VectorClockDetector::new(n));
        let mut rep = VectorClockDetector::new(n);
        log.replay(&mut rep);
        assert_eq!(
            live.races().reports(),
            rep.races().reports(),
            "{}: VectorClockDetector",
            w.name
        );

        let live = drive_live(&w.program, 9, Lockset::new(n));
        let mut rep = Lockset::new(n);
        log.replay(&mut rep);
        assert_eq!(live.reports(), rep.reports(), "{}: Lockset", w.name);
    }
}

#[test]
fn recording_is_deterministic() {
    let w = txrace_workloads::by_name("bodytrack", 4).expect("bundled workload");
    let d = Detector::new(w.config(Scheme::Tsan, 5));
    let a = d.record(&w.program);
    let b = d.record(&w.program);
    assert_eq!(a.events(), b.events());
    assert_eq!(a.census(), b.census());
    assert_eq!(a.final_memory(), b.final_memory());
    assert_eq!(a.result(), b.result());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random programs: the full pipeline (including sampling RNG state
    /// and static pruning) replays identically to the live run.
    #[test]
    fn random_programs_replay_identically(
        gen_seed in 0u64..400,
        sched_seed in 0u64..40,
    ) {
        let p = random_program(&GenConfig::default(), gen_seed);
        let log = Detector::new(RunConfig::new(Scheme::Tsan, sched_seed)).record(&p);
        for scheme in [Scheme::Tsan, Scheme::TsanSampling { rate: 0.4 }] {
            let d = Detector::new(RunConfig::new(scheme, sched_seed));
            let live = d.run(&p);
            let replayed = d.replay(&log, d.consumer(&p));
            prop_assert_eq!(live.races.reports(), replayed.races.reports());
            prop_assert_eq!(live.breakdown, replayed.breakdown);
            prop_assert_eq!(live.checks, replayed.checks);
            prop_assert_eq!(&live.memory, &replayed.memory);
            prop_assert_eq!(live.run, replayed.run);
        }
    }

    /// Random sync-free programs through the raw HB detectors.
    #[test]
    fn random_programs_raw_detectors_replay_identically(
        gen_seed in 0u64..200,
        sched_seed in 0u64..20,
    ) {
        let p = random_program(&GenConfig::default(), gen_seed);
        let n = p.thread_count();
        let mut sched = FairSched::new(sched_seed, 0.1);
        let log = record_run(&p, &mut sched, StepLimit::default());

        let live = drive_live(&p, sched_seed, FastTrack::new(n, ShadowMode::Exact));
        let mut rep = FastTrack::new(n, ShadowMode::Exact);
        log.replay(&mut rep);
        prop_assert_eq!(live.races().reports(), rep.races().reports());
    }
}
