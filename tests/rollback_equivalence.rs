//! The undo-log correctness contract: both versioning policies produce
//! bit-identical detection results.
//!
//! The live TxRace path keeps two interchangeable ways to version
//! speculative state — the eager [`VersionPolicy::Undo`] journal (the
//! default) and the lazy [`VersionPolicy::Buffer`] write buffer (the
//! oracle). They differ only in *simulator* wall-clock; everything
//! observable — race sets, cycle breakdowns, abort mixes, engine
//! counters, final memory, run results — must match exactly. Checked on
//! all bundled workloads and on randomly generated programs.

use proptest::prelude::*;
use txrace::{Detector, RunConfig, RunOutcome, Scheme};
use txrace_htm::{HtmConfig, VersionPolicy};
use txrace_sim::Program;
use txrace_workloads::{all_workloads, random_program, GenConfig};

fn run_with_policy(mut cfg: RunConfig, p: &Program, version: VersionPolicy) -> RunOutcome {
    cfg.htm = HtmConfig { version, ..cfg.htm };
    Detector::new(cfg).run(p)
}

/// Asserts that `out` (Undo) matches `oracle` (Buffer) on every
/// observable the detector reports.
fn assert_outcomes_identical(app: &str, oracle: &RunOutcome, out: &RunOutcome) {
    let tag = format!("{app} [Undo vs Buffer]");
    assert_eq!(
        oracle.races.reports(),
        out.races.reports(),
        "{tag}: race sets differ"
    );
    assert_eq!(
        oracle.breakdown, out.breakdown,
        "{tag}: cycle ledgers differ"
    );
    assert_eq!(oracle.baseline_cycles, out.baseline_cycles, "{tag}");
    assert!(
        (oracle.overhead - out.overhead).abs() < 1e-12,
        "{tag}: overheads differ"
    );
    assert_eq!(oracle.htm, out.htm, "{tag}: HTM stats (abort mix) differ");
    assert_eq!(oracle.engine, out.engine, "{tag}: engine stats differ");
    assert_eq!(oracle.checks, out.checks, "{tag}: check counts differ");
    assert_eq!(oracle.memory, out.memory, "{tag}: final memory differs");
    assert_eq!(oracle.run, out.run, "{tag}: run results differ");
}

fn check_policies(app: &str, p: &Program, cfg_of: impl Fn() -> RunConfig) {
    let oracle = run_with_policy(cfg_of(), p, VersionPolicy::Buffer);
    assert!(oracle.htm.is_some(), "{app}: expected a TxRace run");
    let out = run_with_policy(cfg_of(), p, VersionPolicy::Undo);
    assert_outcomes_identical(app, &oracle, &out);
}

#[test]
fn all_workloads_roll_back_identically() {
    for w in all_workloads(4) {
        check_policies(w.name, &w.program, || w.config(Scheme::txrace(), 42));
    }
}

#[test]
fn rollback_equivalence_holds_across_seeds() {
    for seed in [0, 7, 1234] {
        for name in ["bodytrack", "vips", "streamcluster"] {
            let w = txrace_workloads::by_name(name, 3).expect("bundled workload");
            check_policies(name, &w.program, || w.config(Scheme::txrace(), seed));
        }
    }
}

#[test]
fn default_policy_is_the_undo_journal() {
    // The equivalence above is only worth its cost if the policy it
    // vouches for is the one every run uses, and if the oracle really
    // takes the other (buffered) path rather than comparing Undo to
    // itself.
    assert_eq!(HtmConfig::default().version, VersionPolicy::Undo);
    assert!(VersionPolicy::Undo.is_eager() && !VersionPolicy::Buffer.is_eager());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random programs: journaled rollback is bit-identical to the
    /// write-buffer oracle through the full TxRace pipeline.
    #[test]
    fn random_programs_roll_back_identically(
        gen_seed in 0u64..400,
        sched_seed in 0u64..40,
    ) {
        let p = random_program(&GenConfig::default(), gen_seed);
        let cfg_of = || RunConfig::new(Scheme::txrace(), sched_seed);
        let oracle = run_with_policy(cfg_of(), &p, VersionPolicy::Buffer);
        let out = run_with_policy(cfg_of(), &p, VersionPolicy::Undo);
        prop_assert_eq!(oracle.races.reports(), out.races.reports());
        prop_assert_eq!(&oracle.breakdown, &out.breakdown);
        prop_assert_eq!(&oracle.htm, &out.htm);
        prop_assert_eq!(&oracle.engine, &out.engine);
        prop_assert_eq!(oracle.checks, out.checks);
        prop_assert_eq!(&oracle.memory, &out.memory);
        prop_assert_eq!(&oracle.run, &out.run);
    }
}
