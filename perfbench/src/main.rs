//! Host-time benchmark of txrace-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <live|replay|genprog> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in a closed loop (one client, one op at a time) for
//! the given time, checks every op against an independent oracle outside
//! the stopwatch, and prints a human-readable report followed by one
//! JSON result line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs half the time untraced and half traced, reports the
//! per-layer metrics, and writes the spans as CSV (`--spans <path>`,
//! default under `$CARGO_TARGET_DIR`). See `README.md` for every metric.

mod genprog;
mod harness;
mod json;
mod layers;
mod live;
mod metrics;
mod replay;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{value_of, RunReport};
use json::Value;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["live", "replay", "genprog"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <live|replay|genprog> --seed <n> \
                     --seconds <s> --trace <0|1> [--spans <path>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {val:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&val.as_str()) => workload = Some(val),
            "--workload" => return Err(bad("expected live, replay or genprog")),
            "--seed" => seed = Some(val.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--spans" => spans = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = metrics::check_names(&metrics::END_TO_END)
        .and_then(|()| metrics::check_names(&metrics::PER_LAYER))
    {
        eprintln!("metric definitions break the naming rules: {e}");
        return ExitCode::FAILURE;
    }
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    let (report, detail) = match args.workload.as_str() {
        "live" => (
            harness::run(|t| live::Live::setup(seed, t), secs, traced),
            format!(
                "17 apps x {} schemes at {} workers, sched seeds {:?}",
                layers::SchemeKind::ALL.len(),
                live::WORKERS,
                live::sched_seeds(seed).collect::<Vec<_>>()
            ),
        ),
        "replay" => {
            let width = replay::width();
            (
                harness::run(|t| replay::Replay::setup(seed, t), secs, traced),
                format!(
                    "17 apps recorded at sched seeds {:?}; fan-out width {width}, {width} shards, \
                     panel of {} detectors",
                    live::sched_seeds(seed).collect::<Vec<_>>(),
                    layers::PANEL_TSAN + 3
                ),
            )
        }
        "genprog" => (
            harness::run(|t| genprog::GenProg::setup(seed, t), secs, traced),
            format!(
                "{} programs from seed {seed}: {} threads x {} ops, {} vars, {} locks, {} conds, {} chans",
                genprog::PROGRAMS,
                genprog::SHAPE.threads,
                genprog::SHAPE.ops_per_thread,
                genprog::SHAPE.shared_vars,
                genprog::SHAPE.locks,
                genprog::SHAPE.conds,
                genprog::SHAPE.chans
            ),
        ),
        other => unreachable!("workload {other} passed argument checks"),
    };
    print_report(&args, &report, &detail);
    ExitCode::SUCCESS
}

fn print_report(args: &Args, r: &RunReport, detail: &str) {
    let n = r.untraced.op_ns.len();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        layers::nproc()
    );
    println!("inputs: {detail}");
    let (q1, q3) = if r.setup_s.len() >= 2 {
        stats::quartiles(&r.setup_s)
    } else {
        (r.setup_s[0], r.setup_s[0])
    };
    println!(
        "setup: {} repetitions, median {:.4} s (q1 {:.4}, q3 {:.4})",
        r.setup_s.len(),
        stats::median(&r.setup_s),
        q1,
        q3
    );
    println!(
        "untraced: {} ops in {} rounds, {:.2} s wall",
        n,
        r.untraced.rounds,
        r.untraced.wall_ns as f64 / 1e9
    );
    match r.tail() {
        Some((p, beyond)) => println!("tail percentile: p{p} ({beyond} of {n} samples beyond it)"),
        None => println!("tail percentile: none ({n} samples is too few)"),
    }
    println!(
        "modeled digest (FNV-1a over first-round results): {:#018x}",
        r.digest
    );
    println!(
        "oracle: {} of {} ops failed (error_rate {})",
        r.failed_ops,
        r.attempted,
        r.failed_ops as f64 / r.attempted as f64
    );
    for f in &r.failures {
        println!(
            "  FAILED op {} [{} seed {}]: {}",
            f.op, f.input, f.seed, f.relation
        );
    }

    let values = if args.trace {
        print_traced(args, r);
        r.per_layer()
    } else {
        r.end_to_end()
    };
    print_values(&values);
    println!(
        "{}",
        json::result_line(r.failed_ops == 0, r.attempted, r.failed_ops, &values)
    );
}

fn print_traced(args: &Args, r: &RunReport) {
    let tp = r.traced.as_ref().expect("traced run has a traced phase");
    let wall = tp.wall_ns as f64;
    println!(
        "traced: {} ops in {} rounds, {:.2} s wall",
        tp.op_ns.len(),
        tp.rounds,
        wall / 1e9
    );
    println!("per-layer self time over the traced phase:");
    println!(
        "  {:<18} {:>8} {:>12} {:>10} {:>7}",
        "span", "calls", "self ms", "us/call", "share"
    );
    let table = r.tracer.self_table(|s| s.op != trace::SETUP_OP);
    for (name, (calls, own)) in &table {
        println!(
            "  {:<18} {:>8} {:>12.2} {:>10.1} {:>6.1}%",
            name,
            calls,
            *own as f64 / 1e6,
            *own as f64 / 1e3 / *calls as f64,
            100.0 * *own as f64 / wall
        );
    }
    let setup = r.tracer.self_table(|s| s.op == trace::SETUP_OP);
    for (name, (calls, own)) in &setup {
        println!(
            "  setup {:<12} {:>8} {:>12.2} {:>10.1}",
            name,
            calls,
            *own as f64 / 1e6,
            *own as f64 / 1e3 / *calls as f64
        );
    }
    let layer = r.per_layer();
    println!(
        "span coverage {:.4} of traced wall; tracing overhead {:.4}x of untraced op time \
         (traced ops make one layer call per span; probes and checks run outside the op)",
        value_of(&layer, "bench.span_coverage"),
        value_of(&layer, "bench.trace_overhead")
    );
    let path = args.spans.clone().unwrap_or_else(|| {
        let dir =
            std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
        dir.join("perfbench")
            .join(format!("spans-{}-{}.csv", args.workload, args.seed))
    });
    match r.tracer.write_csv(&path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            r.tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
}

fn print_values(values: &[Value]) {
    println!("metrics:");
    for v in values {
        println!(
            "  {:<28} {:>18.6} {:<9} ({}, {} is better)",
            v.def.name,
            v.value,
            v.def.unit,
            v.def.layer,
            v.def.better.as_str()
        );
    }
}
