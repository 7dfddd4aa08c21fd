//! Compares the detector families the paper's related-work section
//! discusses, on the same workloads:
//!
//! * **Eraser-style lockset** (Savage et al. '97) — cheap but incomplete:
//!   blind to non-mutex synchronization, so it raises false alarms on
//!   correctly ordered code.
//! * **FastTrack/TSan happens-before** — sound and complete but slow.
//! * **TxRace** — complete, almost as effective as HB detection, and far
//!   cheaper.
//!
//! Each workload is executed once and recorded; the lockset and TSan
//! columns are produced by replaying that single trace, so both detectors
//! judge the *same* interleaving.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin baselines [workers] [seed]
//! ```

use txrace::{CostModel, Detector, LocksetConsumer, PanelConsumer, Scheme};
use txrace_bench::{fmt_x, record_workload, run_scheme, Cli, Table};
use txrace_sim::fan_out;
use txrace_workloads::all_workloads;

fn main() {
    let mut cli = Cli::parse("baselines", &["workers", "seed"], false);
    let workers = cli.workers();
    let seed = cli.next(42u64);

    println!("Detector family comparison (workers={workers}, seed={seed})\n");
    let mut t = Table::new(&[
        "application",
        "lockset reports (fp)",
        "lockset ovh",
        "TSan races",
        "TSan ovh",
        "TxRace races",
        "TxRace ovh",
    ]);
    for w in all_workloads(workers) {
        // Record the workload ONCE; TSan and lockset ride a single
        // heterogeneous fan-out pass over the same trace, so their
        // reports disagree only where the detection algorithms do —
        // never because of interleaving luck. TxRace steers execution
        // and still runs live.
        let log = record_workload(&w, seed);
        let d = Detector::new(w.config(Scheme::Tsan, seed));
        let panel = vec![
            PanelConsumer::Tsan(d.consumer(&w.program)),
            PanelConsumer::Lockset(LocksetConsumer::new(
                w.program.thread_count(),
                CostModel::default(),
            )),
        ];
        let mut replayed = fan_out(&log, panel, 2).into_iter();
        let tsan_consumer = replayed
            .next()
            .and_then(|r| r.consumer.into_tsan())
            .expect("fan_out preserves panel order");
        let tsan = d.outcome_of_replayed(tsan_consumer, &log);
        let ls = replayed
            .next()
            .and_then(|r| r.consumer.into_lockset())
            .expect("fan_out preserves panel order");
        let tx = run_scheme(&w, Scheme::txrace(), seed);

        let base = CostModel::default().baseline_cycles(&w.program);
        let ls_ovh = ls.breakdown().overhead_vs(base);

        // A lockset report is a false positive if the address is not one
        // TSan flags (lockset reports are per-address).
        let tsan_addrs: std::collections::BTreeSet<_> =
            tsan.races.reports().iter().map(|r| r.addr).collect();
        let fp = ls
            .reports()
            .iter()
            .filter(|r| !tsan_addrs.contains(&r.addr))
            .count();

        t.row(vec![
            w.name.to_string(),
            format!("{} ({fp})", ls.reports().len()),
            fmt_x(ls_ovh),
            tsan.races.distinct_count().to_string(),
            fmt_x(tsan.overhead),
            tx.races.distinct_count().to_string(),
            fmt_x(tx.overhead),
        ]);
    }
    println!("{}", t.render());
    println!("lockset is cheap but inexact in both directions: false positives on");
    println!("sync it cannot see, and address-level (not instruction-pair) reports.");
}
