//! The per-app evaluation driver shared by all table/figure binaries.

use txrace::{recall, Detector, RunOutcome, Scheme};
use txrace_sim::EventLog;
use txrace_workloads::Workload;

/// Everything Table 1/2 needs about one app: both detectors on the same
/// workload and seed.
#[derive(Debug)]
pub struct AppResult {
    /// Application name.
    pub name: &'static str,
    /// Full TSan run.
    pub tsan: RunOutcome,
    /// TxRace run.
    pub txrace: RunOutcome,
    /// Recall of TxRace against TSan's reports.
    pub recall: f64,
    /// Cost-effectiveness vs TSan (Table 2): recall / normalized overhead.
    pub cost_effectiveness: f64,
}

impl AppResult {
    /// TxRace overhead normalized to TSan's (Table 2 "overhead" column).
    pub fn normalized_overhead(&self) -> f64 {
        let tsan_extra = (self.tsan.overhead - 1.0).max(1e-9);
        let tx_extra = (self.txrace.overhead - 1.0).max(0.0);
        tx_extra / tsan_extra
    }
}

/// Runs TSan and the default TxRace configuration on `w` at `seed` and
/// scores them.
pub fn evaluate_app(w: &Workload, seed: u64) -> AppResult {
    let tsan = Detector::new(w.config(Scheme::Tsan, seed)).run(&w.program);
    let txrace = Detector::new(w.config(Scheme::txrace(), seed)).run(&w.program);
    assert!(tsan.completed(), "{}: TSan run did not complete", w.name);
    assert!(
        txrace.completed(),
        "{}: TxRace run did not complete",
        w.name
    );
    let rec = recall(&txrace.races, &tsan.races);
    let mut result = AppResult {
        name: w.name,
        tsan,
        txrace,
        recall: rec,
        cost_effectiveness: 0.0,
    };
    let norm = result.normalized_overhead();
    result.cost_effectiveness = if norm > 0.0 { rec / norm } else { rec / 1e-9 };
    result
}

/// Runs one scheme on a workload.
pub fn run_scheme(w: &Workload, scheme: Scheme, seed: u64) -> RunOutcome {
    let out = Detector::new(w.config(scheme, seed)).run(&w.program);
    assert!(out.completed(), "{}: run did not complete", w.name);
    out
}

/// Records `w` once at `seed` into a replayable trace. Scheduling depends
/// only on the workload's scheduler policy and the seed — never on the
/// detection scheme — so one recording serves every pure-observer scheme
/// (TSan, all sampling rates, lockset) via [`replay_schemes_fanout`].
pub fn record_workload(w: &Workload, seed: u64) -> EventLog {
    Detector::new(w.config(Scheme::Tsan, seed)).record(&w.program)
}

/// Replays one recorded trace of `w` under every scheme in `schemes`
/// concurrently — a single [`txrace_sim::fan_out`] pass over the shared
/// log, one thread per core — and returns the outcomes in scheme
/// order. Each outcome is byte-identical to a live [`run_scheme`] call
/// with the same seed: consumers are pure observers with private state,
/// so neither replay nor concurrency changes what any of them sees.
///
/// # Panics
///
/// Panics if a scheme is TxRace (an active engine cannot run from a
/// fixed trace — use [`run_scheme`]) or if the recorded run did not
/// complete.
pub fn replay_schemes_fanout(
    w: &Workload,
    log: &EventLog,
    schemes: &[Scheme],
    seed: u64,
) -> Vec<RunOutcome> {
    let detectors: Vec<Detector> = schemes
        .iter()
        .map(|s| Detector::new(w.config(s.clone(), seed)))
        .collect();
    let consumers = detectors.iter().map(|d| d.consumer(&w.program)).collect();
    txrace_sim::fan_out(log, consumers, usize::MAX)
        .into_iter()
        .zip(&detectors)
        .map(|(r, d)| {
            let outcome = d.outcome_of_replayed(r.consumer, log);
            assert!(
                outcome.completed(),
                "{}: recorded run did not complete",
                w.name
            );
            outcome
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_workloads::by_name;

    #[test]
    fn evaluate_runs_both_detectors() {
        let w = by_name("blackscholes", 2).unwrap();
        let r = evaluate_app(&w, 42);
        assert!(r.tsan.completed() && r.txrace.completed());
        assert!(r.recall >= 0.0 && r.recall <= 1.0);
        assert!(r.txrace.htm.is_some());
        assert!(r.tsan.htm.is_none());
    }

    #[test]
    fn fanout_replay_matches_serial_per_scheme() {
        let w = by_name("bodytrack", 2).unwrap();
        let log = record_workload(&w, 7);
        let schemes = [
            Scheme::Tsan,
            Scheme::TsanSampling { rate: 0.1 },
            Scheme::TsanSampling { rate: 0.5 },
        ];
        let fanned = replay_schemes_fanout(&w, &log, &schemes, 7);
        assert_eq!(fanned.len(), schemes.len());
        for (f, scheme) in fanned.iter().zip(&schemes) {
            let d = Detector::new(w.config(scheme.clone(), 7));
            let serial = d.replay(&log, d.consumer(&w.program));
            assert_eq!(f.races.reports(), serial.races.reports());
            assert_eq!(f.breakdown, serial.breakdown);
            assert_eq!(f.checks, serial.checks);
        }
    }

    #[test]
    fn replayed_scheme_matches_live_run() {
        let w = by_name("bodytrack", 2).unwrap();
        let log = record_workload(&w, 7);
        let schemes = [Scheme::Tsan, Scheme::TsanSampling { rate: 0.4 }];
        let replayed = replay_schemes_fanout(&w, &log, &schemes, 7);
        for (scheme, replayed) in schemes.into_iter().zip(replayed) {
            let live = run_scheme(&w, scheme, 7);
            assert_eq!(live.races.reports(), replayed.races.reports());
            assert_eq!(live.breakdown, replayed.breakdown);
            assert_eq!(live.baseline_cycles, replayed.baseline_cycles);
            assert_eq!(live.checks, replayed.checks);
            assert_eq!(live.memory, replayed.memory);
            assert_eq!(live.run, replayed.run);
        }
    }
}
