//! A small command-line front end for running detectors over the bundled
//! workloads.
//!
//! ```text
//! txrace-cli list
//! txrace-cli run <app> [--scheme tsan|txrace|lockset|sampling=<rate>]
//!                      [--seed <n>] [--workers <n>]
//!                      [--loopcut noopt|dyn|prof] [--verbose]
//! ```
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p txrace-bench --bin txrace-cli -- run vips --seed 3
//! cargo run --release -p txrace-bench --bin txrace-cli -- run bodytrack --scheme tsan
//! ```

use txrace::{CostModel, Detector, LocksetConsumer, LoopcutMode, Scheme, TxRaceOpts};
use txrace_workloads::{all_workloads, by_name};

fn usage() -> ! {
    eprintln!(
        "usage:\n  txrace-cli list\n  txrace-cli run <app> [--scheme tsan|txrace|lockset|sampling=<rate>] \
         [--seed <n>] [--workers <n>] [--loopcut noopt|dyn|prof] [--verbose]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("available workloads (paper Table 1 order):");
            for w in all_workloads(2) {
                println!(
                    "  {:<14} {} planted race(s); scale: {}",
                    w.name,
                    w.planted.len(),
                    w.scale
                );
            }
        }
        Some("run") => run_command(&args[1..]),
        _ => usage(),
    }
}

fn run_command(args: &[String]) {
    let Some(app) = args.first() else { usage() };
    let mut scheme = "txrace".to_string();
    let mut seed = 42u64;
    let mut workers = 4usize;
    let mut loopcut = LoopcutMode::Dyn;
    let mut verbose = false;

    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let val = |it: &mut std::slice::Iter<String>| it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--scheme" => scheme = val(&mut it),
            "--seed" => seed = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--workers" => workers = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--loopcut" => {
                loopcut = match val(&mut it).as_str() {
                    "noopt" => LoopcutMode::NoOpt,
                    "dyn" => LoopcutMode::Dyn,
                    "prof" => LoopcutMode::Prof,
                    _ => usage(),
                }
            }
            "--verbose" => verbose = true,
            _ => usage(),
        }
    }

    txrace_bench::require_workers(workers);
    let Some(w) = by_name(app, workers) else {
        eprintln!("unknown app {app:?}; try `txrace-cli list`");
        std::process::exit(2);
    };

    if scheme == "lockset" {
        // Record under the workload's own scheduler, then replay the
        // trace through the lockset consumer.
        let log = txrace_bench::record_workload(&w, seed);
        let mut ls = LocksetConsumer::new(w.program.thread_count(), CostModel::default());
        log.replay(&mut ls);
        println!(
            "{app} (lockset, seed {seed}, {workers} workers): {:?}",
            log.result().status
        );
        println!("lockset violations: {}", ls.reports().len());
        if verbose {
            for rep in ls.reports() {
                println!("  {rep}");
            }
        }
        return;
    }

    let scheme = match scheme.as_str() {
        "tsan" => Scheme::Tsan,
        "txrace" => Scheme::TxRace(TxRaceOpts {
            loopcut,
            ..TxRaceOpts::default()
        }),
        s if s.starts_with("sampling=") => {
            let rate: f64 = s["sampling=".len()..].parse().unwrap_or_else(|_| usage());
            if !(0.0..=1.0).contains(&rate) {
                eprintln!("sampling rate must be in [0, 1], got {rate}");
                usage();
            }
            Scheme::TsanSampling { rate }
        }
        _ => usage(),
    };
    let out = Detector::new(w.config(scheme, seed)).run(&w.program);
    println!(
        "{app} (seed {seed}, {workers} workers): {:?} in {} steps",
        out.run.status, out.run.steps
    );
    println!(
        "races:    {} distinct static pair(s)",
        out.races.distinct_count()
    );
    if verbose {
        for r in out.races.reports() {
            let label = |s| w.program.label_of(s).unwrap_or("<unlabeled>");
            println!(
                "  {r}  [{} vs {}]",
                label(r.prior.site),
                label(r.current.site)
            );
        }
    }
    println!("overhead: {:.2}x vs uninstrumented", out.overhead);
    if let Some(h) = out.htm {
        println!(
            "txns:     {} committed; aborts {} conflict / {} capacity / {} unknown / {} retry",
            h.committed, h.conflict_aborts, h.capacity_aborts, h.unknown_aborts, h.retry_aborts
        );
    }
    if let Some(es) = out.engine {
        println!(
            "slowpath: {} regions ({} conflict, {} capacity, {} unknown, {} small, {} cuts)",
            es.slow_total(),
            es.slow_conflict,
            es.slow_capacity,
            es.slow_unknown,
            es.slow_small,
            es.loop_cuts
        );
    }
}
