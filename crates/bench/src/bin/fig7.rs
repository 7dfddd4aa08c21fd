//! Regenerates the paper's **Figure 7**: the breakdown of TxRace's runtime
//! overhead into baseline, pure fast-path cost (xbegin/xend + fast-path
//! sync tracking + slow-only tiny regions), and the handling of conflict,
//! capacity, and unknown aborts.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin fig7 [workers] [seed]
//! ```

use txrace_bench::{evaluate_app, fmt_x, Cli, Table};
use txrace_workloads::all_workloads;

fn main() {
    let mut cli = Cli::parse("fig7", &["workers", "seed"], false);
    let workers = cli.workers();
    let seed = cli.next(42u64);

    println!("TxRace reproduction — Figure 7: overhead breakdown (workers={workers}, seed={seed})");
    println!("columns are multiples of the uninstrumented baseline\n");

    let mut t = Table::new(&[
        "application",
        "baseline",
        "xbegin/xend",
        "conflict",
        "capacity",
        "unknown",
        "total",
    ]);
    for w in all_workloads(workers) {
        let r = evaluate_app(&w, seed);
        let bd = r.txrace.breakdown;
        let base = r.txrace.baseline_cycles.max(1) as f64;
        let frac = |v: u64| format!("{:.2}", v as f64 / base);
        t.row(vec![
            w.name.to_string(),
            frac(bd.baseline),
            frac(bd.txn_mgmt),
            frac(bd.conflict),
            frac(bd.capacity),
            frac(bd.unknown),
            fmt_x(r.txrace.overhead),
        ]);
    }
    println!("{}", t.render());
    println!("note: 'baseline' can exceed 1.00 because slow-path re-execution");
    println!("redoes architectural work; the paper folds that into the abort bars.");
}
