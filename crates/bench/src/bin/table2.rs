//! Regenerates the paper's **Table 2**: cost-effectiveness of TxRace vs
//! TSan — per-app overhead normalized to TSan's, recall against TSan's
//! reports, and the cost-effectiveness ratio `recall / overhead`
//! (paper geomeans: 0.38 / 0.95 / 2.38).
//!
//! ```text
//! cargo run --release -p txrace-bench --bin table2 [workers] [seed]
//! ```

use txrace_bench::{evaluate_app, geomean, paper, Cli, Table};
use txrace_sim::par_map;
use txrace_workloads::all_workloads;

fn main() {
    let mut cli = Cli::parse("table2", &["workers", "seed"], false);
    let workers = cli.workers();
    let seed = cli.next(42u64);

    println!("TxRace reproduction — Table 2 (workers={workers}, seed={seed})");
    println!("paper values in parentheses\n");

    let mut t = Table::new(&["application", "overhead", "recall", "cost-effectiveness"]);
    let (mut ovs, mut recs, mut ces) = (Vec::new(), Vec::new(), Vec::new());
    // One cell per app; results come back in input order, so the
    // rendered table is byte-identical to a serial run.
    let apps = all_workloads(workers);
    let results = par_map(&apps, usize::MAX, |_, w| evaluate_app(w, seed));
    for (w, r) in apps.iter().zip(results) {
        // The message-passing families have no paper row; they print
        // bare measured values and stay out of the paper-comparison
        // geomeans.
        let p = paper::row(w.name);
        let norm = r.normalized_overhead();
        t.row(vec![
            w.name.to_string(),
            match p {
                Some(p) => format!(
                    "{:.2} ({:.2})",
                    norm,
                    p.txrace_overhead.max(1.0) / p.tsan_overhead.max(1.0)
                ),
                None => format!("{norm:.2}"),
            },
            match p {
                Some(p) => format!("{:.2} ({:.2})", r.recall, p.recall),
                None => format!("{:.2}", r.recall),
            },
            match p {
                Some(p) => format!("{:.2} ({:.2})", r.cost_effectiveness, p.cost_effectiveness),
                None => format!("{:.2}", r.cost_effectiveness),
            },
        ]);
        if p.is_some() {
            ovs.push(norm.max(1e-3));
            recs.push(r.recall.max(1e-3));
            ces.push(r.cost_effectiveness.max(1e-3));
        }
    }
    println!("{}", t.render());
    println!(
        "geo.mean: overhead {:.2} (paper 0.38), recall {:.2} (paper {:.2}), CE {:.2} (paper {:.2})",
        geomean(&ovs),
        geomean(&recs),
        paper::GEOMEAN_RECALL,
        geomean(&ces),
        paper::GEOMEAN_CE,
    );
}
