//! Regenerates the paper's **Figure 9**: effectiveness of the loop-cut
//! optimization — TSan vs TxRace-NoOpt vs TxRace-DynLoopcut vs
//! TxRace-ProfLoopcut (paper geomeans: 11.68x / — / 5.34x / 4.65x, with
//! Prof best and NoOpt worst among the TxRace variants).
//!
//! ```text
//! cargo run --release -p txrace-bench --bin fig9 [workers] [seed]
//! ```

use txrace::{LoopcutMode, Scheme};
use txrace_bench::{fmt_x, geomean, paper, run_scheme, Cli, Table};
use txrace_sim::par_map;
use txrace_workloads::all_workloads;

fn main() {
    let mut cli = Cli::parse("fig9", &["workers", "seed"], false);
    let workers = cli.workers();
    let seed = cli.next(42u64);

    println!(
        "TxRace reproduction — Figure 9: loop-cut effectiveness (workers={workers}, seed={seed})\n"
    );
    let mut t = Table::new(&["application", "TSan", "NoOpt", "DynLoopcut", "ProfLoopcut"]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let schemes = [
        Scheme::Tsan,
        Scheme::txrace_loopcut(LoopcutMode::NoOpt),
        Scheme::txrace_loopcut(LoopcutMode::Dyn),
        Scheme::txrace_loopcut(LoopcutMode::Prof),
    ];
    // One cell per (app, scheme) pair; rows rendered in input order.
    let apps = all_workloads(workers);
    let grid: Vec<(usize, Scheme)> = (0..apps.len())
        .flat_map(|a| schemes.iter().map(move |s| (a, s.clone())))
        .collect();
    let outs = par_map(&grid, usize::MAX, |_, (a, s)| {
        run_scheme(&apps[*a], s.clone(), seed)
    });
    for (w, row) in apps.iter().zip(outs.chunks(schemes.len())) {
        let mut cells = vec![w.name.to_string()];
        for (i, out) in row.iter().enumerate() {
            cells.push(fmt_x(out.overhead));
            // Geomeans compare against the paper, so they cover the
            // paper apps only (the message-passing families still get
            // table rows above).
            if paper::row(w.name).is_some() {
                cols[i].push(out.overhead);
            }
        }
        t.row(cells);
    }
    println!("{}", t.render());
    println!(
        "geo.mean (paper apps): TSan {} (paper 11.68x), NoOpt {}, Dyn {} (paper 5.34x), Prof {} (paper 4.65x)",
        fmt_x(geomean(&cols[0])),
        fmt_x(geomean(&cols[1])),
        fmt_x(geomean(&cols[2])),
        fmt_x(geomean(&cols[3])),
    );
}
