//! Records a workload into an event trace and pretty-prints it — the
//! debugging companion of the record/replay pipeline. What this prints is
//! exactly the stream every pure-observer detector consumes, so a
//! surprising race report can be traced event by event.
//!
//! ```text
//! txdump <app> [--seed <n>] [--workers <n>] [--thread <t>]
//!              [--kind <k>[,<k>...]] [--head <n>] [--summary] [--stats]
//!              [--shards <n>] [--sites] [--epochs] [--budget <x>]
//! ```
//!
//! Every run records the app afresh; nothing is stored on disk.
//!
//! `--stats` prints per-kind event counts, the app's write density and
//! the top-N hottest addresses (N from `--head`, default 10) instead of
//! the event stream.
//!
//! `--shards <n>` builds the indexed shard plan (`ShardPlan`) for the
//! trace and prints the per-shard balance table: each shard's access
//! slice, its share of the routed accesses, its dispatched-event count
//! (slice + broadcast sync stream), and the max/mean imbalance — the
//! view `bench_parallel`'s `shard` rows aggregate.
//!
//! `--sites` skips recording entirely and prints the static analysis
//! view: every data site with its flow-insensitive (`Full`) and
//! flow-sensitive (`FullFlow`) classification, redundancy witnesses, and
//! the static may-race candidate pairs.
//!
//! `--epochs` runs the app live under the adaptive `ProductionMode`
//! controller (`--budget`, default 1.2) and prints the per-epoch
//! telemetry the controller steered by: the active knob values, abort
//! counts, check/elision totals, the tsan/htm cycle split, and the
//! cumulative modeled overhead at each epoch boundary.
//!
//! Kinds: `read write rmw acquire release signal wait spawn join
//! barrier-arrive barrier-release thread-done compute syscall
//! chan-send chan-recv`.
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p txrace-bench --bin txdump -- bodytrack --summary
//! cargo run --release -p txrace-bench --bin txdump -- vips --thread 1 --kind read,write --head 40
//! ```

use txrace_sim::{EventLog, TraceEvent, TraceEventKind};
use txrace_workloads::by_name;

fn usage() -> ! {
    eprintln!(
        "usage:\n  txdump <app> [--seed <n>] [--workers <n>] [--thread <t>] \
         [--kind <k>[,<k>...]] [--head <n>] [--summary] [--stats] \
         [--shards <n>] [--sites] [--epochs] [--budget <x>]"
    );
    std::process::exit(2);
}

fn parse_kind(s: &str) -> TraceEventKind {
    match s {
        "read" => TraceEventKind::Read,
        "write" => TraceEventKind::Write,
        "rmw" => TraceEventKind::Rmw,
        "acquire" => TraceEventKind::Acquire,
        "release" => TraceEventKind::Release,
        "signal" => TraceEventKind::Signal,
        "wait" => TraceEventKind::Wait,
        "spawn" => TraceEventKind::Spawn,
        "join" => TraceEventKind::Join,
        "barrier-arrive" => TraceEventKind::BarrierArrive,
        "barrier-release" => TraceEventKind::BarrierRelease,
        "thread-done" => TraceEventKind::ThreadDone,
        "compute" => TraceEventKind::Compute,
        "syscall" => TraceEventKind::Syscall,
        "chan-send" => TraceEventKind::ChanSend,
        "chan-recv" => TraceEventKind::ChanRecv,
        _ => usage(),
    }
}

fn kind_name(k: TraceEventKind) -> &'static str {
    match k {
        TraceEventKind::Read => "read",
        TraceEventKind::Write => "write",
        TraceEventKind::Rmw => "rmw",
        TraceEventKind::Acquire => "acquire",
        TraceEventKind::Release => "release",
        TraceEventKind::Signal => "signal",
        TraceEventKind::Wait => "wait",
        TraceEventKind::Spawn => "spawn",
        TraceEventKind::Join => "join",
        TraceEventKind::BarrierArrive => "barrier-arrive",
        TraceEventKind::BarrierRelease => "barrier-release",
        TraceEventKind::ThreadDone => "thread-done",
        TraceEventKind::Compute => "compute",
        TraceEventKind::Syscall => "syscall",
        TraceEventKind::ChanSend => "chan-send",
        TraceEventKind::ChanRecv => "chan-recv",
    }
}

/// `--stats`: aggregate trace statistics — per-kind event counts, write
/// density, and the `top_n` hottest addresses by access count.
fn print_stats(log: &EventLog, top_n: usize) {
    let total = log.len().max(1) as f64;
    let mut counts = std::collections::BTreeMap::new();
    // (reads, writes) per address; RMWs count as writes.
    let mut heat: std::collections::HashMap<u64, (u64, u64)> = std::collections::HashMap::new();
    for e in log.events() {
        *counts.entry(kind_name(e.kind)).or_insert(0u64) += 1;
        match e.kind {
            TraceEventKind::Read => heat.entry(e.arg).or_default().0 += 1,
            TraceEventKind::Write | TraceEventKind::Rmw => heat.entry(e.arg).or_default().1 += 1,
            _ => {}
        }
    }

    println!("\nevents by kind:");
    for (k, n) in &counts {
        println!("  {k:<16} {n:>9}  ({:5.1}%)", *n as f64 / total * 100.0);
    }

    // Per-channel traffic: each arg is a ChanId; sends and recvs must
    // balance in a completed run (the ChanTrafficImbalance lint's view).
    let mut chan: std::collections::BTreeMap<u64, (u64, u64)> = std::collections::BTreeMap::new();
    for e in log.events() {
        match e.kind {
            TraceEventKind::ChanSend => chan.entry(e.arg).or_default().0 += 1,
            TraceEventKind::ChanRecv => chan.entry(e.arg).or_default().1 += 1,
            _ => {}
        }
    }
    if !chan.is_empty() {
        println!("\nchannel traffic:");
        for (ch, (s, r)) in &chan {
            println!(
                "  ch{ch:<4} {s:>7} sends {r:>7} recvs{}",
                if s == r { "" } else { "  (IMBALANCED)" }
            );
        }
    }

    let reads: u64 = heat.values().map(|&(r, _)| r).sum();
    let writes: u64 = heat.values().map(|&(_, w)| w).sum();
    let accesses = reads + writes;
    println!("\nwrite density:");
    println!("  {reads} reads, {writes} writes (incl. rmw) over {accesses} accesses");
    println!(
        "  {:.1}% writes; {} distinct addresses, {:.1} accesses/address",
        writes as f64 / (accesses.max(1)) as f64 * 100.0,
        heat.len(),
        accesses as f64 / heat.len().max(1) as f64,
    );

    let mut hottest: Vec<(u64, (u64, u64))> = heat.into_iter().collect();
    hottest.sort_by_key(|&(addr, (r, w))| (std::cmp::Reverse(r + w), addr));
    println!("\ntop {} hottest addresses:", top_n.min(hottest.len()));
    println!(
        "  {:<18} {:>9} {:>9} {:>9}",
        "address", "reads", "writes", "total"
    );
    for (addr, (r, w)) in hottest.into_iter().take(top_n) {
        println!("  {:#016x} {r:>9} {w:>9} {:>9}", addr, r + w);
    }
}

/// `--shards <n>`: the indexed-sharding view of one trace — how the
/// one-pass access partitioner balances the routed accesses across `n`
/// shards, and what each shard actually dispatches (its slice plus the
/// broadcast sync stream).
fn print_shards(log: &EventLog, shards: usize) {
    use txrace_hb::ShardPlan;

    let t0 = std::time::Instant::now();
    let plan = ShardPlan::build(log, shards);
    let plan_wall = t0.elapsed();
    let shards = plan.partition().shards();
    let total = plan.partition().total_accesses();
    let sync = plan.sync().len() as u64;
    println!(
        "\nshard plan: {total} routed accesses + {sync} sync events \
         (of {} logged), built in {plan_wall:?}",
        log.len()
    );
    println!(
        "  {:>5} {:>10} {:>7} {:>10} {:>8}",
        "shard", "accesses", "share", "dispatch", "vs mean"
    );
    let mean = total as f64 / shards as f64;
    let mut max_slice = 0u64;
    for s in 0..shards {
        let n = plan.partition().slice(s).len() as u64;
        max_slice = max_slice.max(n);
        println!(
            "  {s:>5} {n:>10} {:>6.1}% {:>10} {:>7.2}x",
            n as f64 / total.max(1) as f64 * 100.0,
            n + sync,
            n as f64 / mean.max(1.0)
        );
    }
    println!(
        "\n  imbalance (max/mean slice): {:.2}x",
        max_slice as f64 / mean.max(1.0)
    );
    println!(
        "  critical-path dispatch vs full-log walk: {:.2}x \
         (old broadcast design: 1.00x per shard, {shards}.00x total)",
        (max_slice + sync) as f64 / log.len().max(1) as f64
    );
}

/// `--sites`: the static analysis view of one workload — per-site
/// classification under both pruning layers, plus the may-race pairs.
fn print_sites(w: &txrace_workloads::Workload) {
    use txrace::{FlowAnalysis, SiteClass, SiteClassTable};

    let p = &w.program;
    let base = SiteClassTable::analyze(p);
    let fa = FlowAnalysis::run(p);
    let class_str = |c: SiteClass| match c {
        SiteClass::PotentiallyRacy => "RACY".to_string(),
        SiteClass::RaceFree(r) => r.to_string(),
    };
    let op_str = |op: &txrace_sim::Op| match op {
        txrace_sim::Op::Read(_) => "read",
        txrace_sim::Op::Write(_, _) => "write",
        txrace_sim::Op::Rmw(_, _) => "rmw",
        txrace_sim::Op::ReadArr { .. } => "read[]",
        txrace_sim::Op::WriteArr { .. } => "write[]",
        _ => "other",
    };
    println!(
        "\nsite classification ({} data sites):",
        fa.table.stats(p).data_sites
    );
    println!(
        "  {:>6} {:>3} {:<8} {:<22} {:<14} {:<16} witness",
        "site", "thr", "op", "label", "full", "full-flow"
    );
    p.visit_static(&mut |t, site, op| {
        if !op.is_data_access() {
            return;
        }
        let label = p.label_of(site).unwrap_or("-");
        let witness = fa
            .table
            .witness_of(site)
            .map(|ws| {
                p.label_of(ws)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("site {}", ws.0))
            })
            .unwrap_or_default();
        println!(
            "  {:>6} {:>3} {:<8} {:<22} {:<14} {:<16} {}",
            site.0,
            t.0,
            op_str(op),
            label,
            class_str(base.class(site)),
            class_str(fa.table.class(site)),
            witness
        );
    });

    println!("\nmay-race candidate pairs ({}):", fa.pairs.len());
    for pr in fa.pairs.pairs() {
        let name = |s: txrace_sim::SiteId| {
            p.label_of(s)
                .map(str::to_string)
                .unwrap_or_else(|| format!("site {}", s.0))
        };
        let addr = fa.pairs.witness_addr(pr).expect("pair has a witness");
        println!("  {:<22} x {:<22} @ {:#x}", name(pr.a), name(pr.b), addr.0);
    }
}

/// `--epochs`: run the app live under `ProductionMode` and print the
/// epoch-by-epoch telemetry the adaptive controller steered by.
fn print_epochs(w: &txrace_workloads::Workload, seed: u64, budget: f64) {
    use txrace::{Detector, Scheme};

    let out = Detector::new(w.config(Scheme::production(budget), seed)).run(&w.program);
    let tm = out
        .telemetry
        .as_ref()
        .expect("production runs always carry telemetry");
    println!(
        "\nproduction run: budget {budget}x, overhead {:.2}x, {} race(s), \
         {}/{} epochs active",
        out.overhead,
        out.races.distinct_count(),
        tm.active_epochs(),
        tm.epochs.len(),
    );
    println!(
        "\n  {:>5} {:>7} {:>6} {:>5} {:>3} {:>5} {:>13} {:>9} {:>9} {:>10} {:>10} {:>8}",
        "epoch",
        "events",
        "active",
        "samp",
        "K",
        "lcut",
        "aborts c/k/u",
        "checks",
        "elided",
        "tsan cyc",
        "htm cyc",
        "cum ovh"
    );
    for e in &tm.epochs {
        println!(
            "  {:>5} {:>7} {:>6} {:>5.2} {:>3} {:>5} {:>5}/{:<3}/{:<3} {:>9} {:>9} {:>10} {:>10} {:>7.2}x",
            e.index,
            e.events,
            if e.active { "on" } else { "off" },
            e.sampling,
            e.k_min_ops,
            e.loopcut_threshold,
            e.conflict_aborts,
            e.capacity_aborts,
            e.unknown_aborts,
            e.checks,
            e.elided_checks,
            e.tsan_cycles,
            e.htm_cycles,
            e.cum_overhead,
        );
    }
    println!(
        "\n  {} events total; controller decisions are a pure function of\n  \
         this telemetry prefix, so a rerun with the same seed and budget\n  \
         reproduces this table exactly.",
        tm.total_events()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut app: Option<String> = None;
    let mut seed = 42u64;
    let mut workers = 4usize;
    let mut thread: Option<u32> = None;
    let mut kinds: Option<Vec<TraceEventKind>> = None;
    let mut head: Option<usize> = None;
    let mut summary = false;
    let mut stats = false;
    let mut shards: Option<usize> = None;
    let mut sites = false;
    let mut epochs = false;
    let mut budget = 1.2f64;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let val = |it: &mut std::slice::Iter<String>| it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--seed" => seed = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--workers" => workers = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--thread" => thread = Some(val(&mut it).parse().unwrap_or_else(|_| usage())),
            "--kind" => kinds = Some(val(&mut it).split(',').map(parse_kind).collect()),
            "--head" => head = Some(val(&mut it).parse().unwrap_or_else(|_| usage())),
            "--summary" => summary = true,
            "--stats" => stats = true,
            "--shards" => shards = Some(val(&mut it).parse().unwrap_or_else(|_| usage())),
            "--sites" => sites = true,
            "--epochs" => epochs = true,
            "--budget" => budget = val(&mut it).parse().unwrap_or_else(|_| usage()),
            // The one positional argument is the app; flags go anywhere.
            s if !s.starts_with('-') && app.is_none() => app = Some(s.to_string()),
            _ => usage(),
        }
    }
    let Some(app) = app else { usage() };
    let app = app.as_str();
    txrace_bench::require_workers(workers);
    if shards == Some(0) {
        eprintln!("--shards must be at least 1");
        usage();
    }

    let Some(w) = by_name(app, workers) else {
        eprintln!("unknown app {app:?}; try `txrace-cli list`");
        std::process::exit(2);
    };
    if sites {
        // Pure static analysis: no recording needed.
        println!("{app} ({workers} workers): static site classification");
        print_sites(&w);
        return;
    }
    if epochs {
        // Live engine run, not a trace replay: the controller only
        // exists inside the two-phase engine.
        println!("{app} (seed {seed}, {workers} workers): adaptive controller epochs");
        print_epochs(&w, seed, budget);
        return;
    }
    let log = txrace_bench::record_workload(&w, seed);

    let census = log.census();
    println!(
        "{app} (seed {seed}, {workers} workers): {:?} in {} steps",
        log.result().status,
        log.result().steps
    );
    println!(
        "trace: {} events over {} threads ({} mem accesses, {} sync ops, {} syscalls, {} compute units)",
        log.len(),
        log.thread_count(),
        census.mem_accesses,
        census.sync_ops,
        census.syscalls,
        census.compute_units,
    );
    if stats {
        print_stats(&log, head.unwrap_or(10));
        return;
    }
    if let Some(n) = shards {
        print_shards(&log, n);
        return;
    }
    if summary {
        let mut counts = std::collections::BTreeMap::new();
        for e in log.events() {
            *counts.entry(kind_name(e.kind)).or_insert(0u64) += 1;
        }
        println!("\nevents by kind:");
        for (k, n) in counts {
            println!("  {k:<16} {n}");
        }
        return;
    }

    let keep = |e: &TraceEvent| {
        thread.is_none_or(|t| e.thread.0 == t)
            && kinds.as_ref().is_none_or(|ks| ks.contains(&e.kind))
    };
    let mut printed = 0usize;
    for (i, e) in log.events().iter().enumerate() {
        if !keep(e) {
            continue;
        }
        if head.is_some_and(|h| printed >= h) {
            println!("  ... (truncated by --head)");
            break;
        }
        printed += 1;
        let label = w
            .program
            .label_of(e.site)
            .map(|l| format!(" [{l}]"))
            .unwrap_or_default();
        match e.kind {
            TraceEventKind::BarrierRelease => {
                let (b, arrivals) = log.release_arrivals(e.arg);
                println!(
                    "  {i:>7}  {:<16} barrier {} releasing {} thread(s)",
                    "barrier-release",
                    b.0,
                    arrivals.len()
                );
            }
            TraceEventKind::ThreadDone => {
                println!("  {i:>7}  {:<16} t{}", "thread-done", e.thread.0);
            }
            k => {
                println!(
                    "  {i:>7}  {:<16} t{} site {}{} arg {}",
                    kind_name(k),
                    e.thread.0,
                    e.site.0,
                    label,
                    e.arg
                );
            }
        }
    }
}
