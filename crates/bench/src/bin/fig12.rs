//! Regenerates the paper's **Figure 12**: bodytrack runtime overhead as a
//! function of the TSan sampling rate, normalized to 100% sampling, with
//! TxRace's overhead marked. The paper measures TxRace at 0.69 of full
//! TSan — equivalent to sampling ~25.5% of memory operations.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin fig12 [workers] [seed]
//! ```

use txrace::Scheme;
use txrace_bench::{record_workload, replay_schemes_fanout, run_scheme, Cli, Table};
use txrace_workloads::by_name;

fn main() {
    let mut cli = Cli::parse("fig12", &["workers", "seed"], false);
    let workers = cli.workers();
    let seed = cli.next(42u64);

    println!("TxRace reproduction — Figure 12: bodytrack overhead vs sampling rate (workers={workers}, seed={seed})\n");
    let w = by_name("bodytrack", workers).expect("bodytrack exists");

    // Record bodytrack ONCE; the whole sweep — full TSan reference plus
    // the eleven sampling rates — rides a single fan-out pass over that
    // one shared trace (every consumer on its own thread, the log walked
    // concurrently). Only TxRace re-executes (it steers the run, so it
    // cannot consume a fixed trace).
    let log = record_workload(&w, seed);
    let mut schemes = vec![Scheme::Tsan];
    schemes.extend((0..=100).step_by(10).map(|pct| Scheme::TsanSampling {
        rate: pct as f64 / 100.0,
    }));
    let outs = replay_schemes_fanout(&w, &log, &schemes, seed);
    let full = &outs[0];
    let full_extra = (full.overhead - 1.0).max(1e-9);

    let mut t = Table::new(&["sampling rate", "normalized overhead"]);
    for (pct, out) in (0..=100).step_by(10).zip(&outs[1..]) {
        let norm = (out.overhead - 1.0).max(0.0) / full_extra;
        t.row(vec![format!("{pct}%"), format!("{norm:.2}")]);
    }
    println!("{}", t.render());

    let tx = run_scheme(&w, Scheme::txrace(), seed);
    let tx_norm = (tx.overhead - 1.0).max(0.0) / full_extra;
    println!(
        "TxRace: {:.2} of full TSan (paper: 0.69, equivalent to ~25.5% sampling)",
        tx_norm
    );
}
