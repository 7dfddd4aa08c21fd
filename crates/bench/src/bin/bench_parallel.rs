//! Measures the parallel replay detection engine: one recorded trace per
//! app, a multi-detector sweep and a heterogeneous detector panel fanned
//! across cores ([`txrace_sim::fan_out`]), and address-sharded FastTrack
//! ([`txrace_hb::ShardedFastTrack`]) at several worker counts — all
//! gated on byte-identical results versus serial replay. Emits
//! `BENCH_parallel.json` with per-consumer and per-shard wall-time and
//! event-count breakdowns.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin bench_parallel \
//!     [workers] [seed] > BENCH_parallel.json
//! ```
//!
//! The headline `sweep` rows compare two ways of evaluating the paper's
//! Figure 12-style sampling-rate sweep (12 detector configurations) over
//! one recorded trace *artifact* (the serialized `.txlog` bytes the
//! record/replay pipeline stores on disk):
//!
//! - **serial single-consumer replay**: one detector invocation per
//!   configuration, each decoding the artifact and walking the event
//!   stream alone — N decodes, N walks, exactly what N separate
//!   replay-tool runs over the trace cost;
//! - **parallel**: decode once, then [`txrace_sim::fan_out`] drives all
//!   N consumers over the shared log (single-pass broadcast per group).
//!
//! The sharded rows measure the indexed design: the trace's sync
//! side-stream ([`txrace_sim::SyncIndex`]) is derived once per app and
//! shared by every shard count; each [`txrace_hb::ShardPlan`] then only
//! re-partitions the accesses. Plan construction is reported separately
//! (`plan_ns`) from the detect phase (`wall_ns`), mirroring how a
//! deployment would amortize one partition across many detector runs.
//! Each repetition of the sharded pass yields both `wall_ns` (the whole
//! pass) and `critical_path_ns` (its slowest shard). Shards run
//! concurrently on at most one thread per core, so on a host with fewer
//! cores than shards they queue instead of time-slicing, and a shard's
//! wall never includes another shard's work.
//!
//! Row kinds (`"row"` field): `sweep` (per-app headline), `fanout`
//! (per-app panel summary, in-memory log on both sides), `consumer`
//! (one panel member's timing), `sharded` (one worker count), `shard`
//! (one shard's slice/checks/wall share, at every worker count),
//! `total`.
//!
//! Fingerprints are FNV-1a over the ordered report lists, so two runs of
//! this binary at *different* worker counts must emit identical
//! `fingerprint` fields — that is the CI byte-identity check.

use std::time::Instant;

use txrace::{CostModel, Detector, LocksetConsumer, PanelConsumer, Scheme};
use txrace_bench::{geomean, json_rows, record_workload, Cli, JsonValue};
use txrace_hb::{
    FastTrack, ShadowMode, ShardPlan, ShardedFastTrack, ShardedLockset, VectorClockDetector,
};
use txrace_sim::{fan_out, EventLog, SyncIndex};
use txrace_workloads::{all_workloads, Workload};

/// Timed repetitions per measurement; the minimum is reported.
const REPS: u32 = 3;

/// Shard counts swept for the sharded detectors.
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];

const RACY_APPS: &[&str] = &[
    "fluidanimate",
    "vips",
    "raytrace",
    "ferret",
    "x264",
    "bodytrack",
    "facesim",
    "streamcluster",
    "canneal",
];

/// The multi-detector panel: three TSan variants, raw FastTrack, the
/// vector-clock reference, and the Eraser lockset baseline.
fn panel_names() -> Vec<&'static str> {
    vec![
        "tsan",
        "tsan@0.1",
        "tsan@0.5",
        "fasttrack",
        "vcref",
        "lockset",
    ]
}

/// The Figure 12-style multi-detector sweep: full TSan plus sampling
/// TSan at rates 0.0, 0.1, ..., 1.0 — twelve detector configurations,
/// the same family the fig12/fig13 binaries evaluate.
fn sweep_schemes() -> Vec<Scheme> {
    let mut schemes = vec![Scheme::Tsan];
    schemes.extend((0..=10).map(|tenths| Scheme::TsanSampling {
        rate: f64::from(tenths) / 10.0,
    }));
    schemes
}

fn sweep_consumer(w: &Workload, scheme: Scheme, seed: u64) -> PanelConsumer {
    let d = Detector::new(w.config(scheme, seed));
    PanelConsumer::Tsan(d.consumer(&w.program))
}

fn make_panel(w: &Workload, seed: u64) -> Vec<PanelConsumer> {
    let n = w.program.thread_count();
    let consumer = |scheme: Scheme| {
        let d = Detector::new(w.config(scheme, seed));
        d.consumer(&w.program)
    };
    vec![
        PanelConsumer::Tsan(consumer(Scheme::Tsan)),
        PanelConsumer::Tsan(consumer(Scheme::TsanSampling { rate: 0.1 })),
        PanelConsumer::Tsan(consumer(Scheme::TsanSampling { rate: 0.5 })),
        PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact)),
        PanelConsumer::VcRef(VectorClockDetector::new(n)),
        PanelConsumer::Lockset(LocksetConsumer::new(n, CostModel::default())),
    ]
}

/// Serial reference: replay each panel member one at a time, single
/// threaded (what the figure sweeps did before fan-out existed).
fn serial_pass(w: &Workload, log: &EventLog, seed: u64) -> (Vec<PanelConsumer>, Vec<u64>, u64) {
    let mut consumers = Vec::new();
    let mut walls = Vec::new();
    let mut total = 0u64;
    for mut c in make_panel(w, seed) {
        let t0 = Instant::now();
        log.replay(&mut c);
        let ns = t0.elapsed().as_nanos() as u64;
        total += ns;
        walls.push(ns);
        consumers.push(c);
    }
    (consumers, walls, total)
}

/// FNV-1a over `bytes` (same function the consumer fingerprints use).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn main() {
    // `workers` is the fan-out width here, not a workload size, so 1
    // (serial replay) is valid.
    let mut cli = Cli::parse("bench_parallel", &["workers", "seed"], false);
    let workers: usize = cli.next(4);
    let seed = cli.next(42u64);

    let mut apps = all_workloads(4);
    apps.retain(|w| RACY_APPS.contains(&w.name));

    let mut rows = Vec::new();
    let mut sweep_speedups = Vec::new();
    let mut fanout_speedups = Vec::new();
    let mut sharded_speedups = Vec::new();
    let total_start = Instant::now();

    for w in &apps {
        let log = record_workload(w, seed);
        let events = log.len() as u64;
        let n = w.program.thread_count();

        // --- Headline: the fig12 sweep over the trace artifact. ---
        // Serial single-consumer replay is what N separate replay-tool
        // invocations over the stored `.txlog` cost: each decodes the
        // artifact and walks the event stream alone. The parallel engine
        // decodes once and broadcasts one walk to all N consumers.
        let artifact = log.to_bytes();
        let schemes = sweep_schemes();

        let mut sweep_serial_ns = u64::MAX;
        let mut sweep_serial_fps = Vec::new();
        for _ in 0..REPS {
            let mut total = 0u64;
            let mut fps = Vec::new();
            for scheme in &schemes {
                let mut c = sweep_consumer(w, scheme.clone(), seed);
                let t0 = Instant::now();
                let decoded = EventLog::from_bytes(&artifact).expect("artifact round-trips");
                decoded.replay(&mut c);
                total += t0.elapsed().as_nanos() as u64;
                fps.push(c.fingerprint());
            }
            if total < sweep_serial_ns {
                sweep_serial_ns = total;
                sweep_serial_fps = fps;
            }
        }

        let mut sweep_par_ns = u64::MAX;
        let mut sweep_par_fps = Vec::new();
        for _ in 0..REPS {
            let consumers: Vec<PanelConsumer> = schemes
                .iter()
                .map(|s| sweep_consumer(w, s.clone(), seed))
                .collect();
            let t0 = Instant::now();
            let decoded = EventLog::from_bytes(&artifact).expect("artifact round-trips");
            let reports = fan_out(&decoded, consumers, workers);
            let ns = t0.elapsed().as_nanos() as u64;
            if ns < sweep_par_ns {
                sweep_par_ns = ns;
                sweep_par_fps = reports.iter().map(|r| r.consumer.fingerprint()).collect();
            }
        }
        assert_eq!(
            sweep_par_fps, sweep_serial_fps,
            "{}: parallel sweep diverged from serial single-consumer replay",
            w.name
        );
        let sweep_speedup = sweep_serial_ns as f64 / sweep_par_ns.max(1) as f64;
        sweep_speedups.push(sweep_speedup);

        rows.push(vec![
            ("app", JsonValue::Str(w.name.to_string())),
            ("row", JsonValue::Str("sweep".to_string())),
            ("workers", JsonValue::Int(workers as u64)),
            ("detectors", JsonValue::Int(schemes.len() as u64)),
            ("events", JsonValue::Int(events)),
            ("artifact_bytes", JsonValue::Int(artifact.len() as u64)),
            ("serial_wall_ns", JsonValue::Int(sweep_serial_ns)),
            ("parallel_wall_ns", JsonValue::Int(sweep_par_ns)),
            (
                "speedup",
                JsonValue::Num((sweep_speedup * 1000.0).round() / 1000.0),
            ),
            ("identical", JsonValue::Int(1)),
        ]);

        // --- Layer 1: multi-consumer fan-out vs serial sweep. ---
        let mut serial_total = u64::MAX;
        let mut serial_walls = Vec::new();
        let mut serial_panel = Vec::new();
        for _ in 0..REPS {
            let (consumers, walls, total) = serial_pass(w, &log, seed);
            if total < serial_total {
                serial_total = total;
                serial_walls = walls;
                serial_panel = consumers;
            }
        }
        let serial_fps: Vec<u64> = serial_panel.iter().map(|c| c.fingerprint()).collect();

        let mut fanout_ns = u64::MAX;
        let mut fanout_reports = Vec::new();
        for _ in 0..REPS {
            let panel = make_panel(w, seed);
            let t0 = Instant::now();
            let reports = fan_out(&log, panel, workers);
            let ns = t0.elapsed().as_nanos() as u64;
            if ns < fanout_ns {
                fanout_ns = ns;
                fanout_reports = reports;
            }
        }
        for (r, &fp) in fanout_reports.iter().zip(&serial_fps) {
            assert_eq!(
                r.consumer.fingerprint(),
                fp,
                "{}: fan-out diverged from serial for {}",
                w.name,
                r.consumer.kind_name()
            );
        }
        let fanout_speedup = serial_total as f64 / fanout_ns.max(1) as f64;
        fanout_speedups.push(fanout_speedup);

        rows.push(vec![
            ("app", JsonValue::Str(w.name.to_string())),
            ("row", JsonValue::Str("fanout".to_string())),
            ("workers", JsonValue::Int(workers as u64)),
            ("consumers", JsonValue::Int(fanout_reports.len() as u64)),
            ("events", JsonValue::Int(events)),
            ("serial_wall_ns", JsonValue::Int(serial_total)),
            ("fanout_wall_ns", JsonValue::Int(fanout_ns)),
            (
                "speedup",
                JsonValue::Num((fanout_speedup * 1000.0).round() / 1000.0),
            ),
            ("identical", JsonValue::Int(1)),
        ]);
        for ((name, report), (serial_ns, fp)) in panel_names()
            .into_iter()
            .zip(&fanout_reports)
            .zip(serial_walls.iter().zip(&serial_fps))
        {
            rows.push(vec![
                ("app", JsonValue::Str(w.name.to_string())),
                ("row", JsonValue::Str("consumer".to_string())),
                ("name", JsonValue::Str(name.to_string())),
                ("wall_ns", JsonValue::Int(report.wall_ns)),
                ("serial_wall_ns", JsonValue::Int(*serial_ns)),
                ("events", JsonValue::Int(report.events)),
                (
                    "findings",
                    JsonValue::Int(report.consumer.finding_count() as u64),
                ),
                ("fingerprint", JsonValue::Int(*fp)),
            ]);
        }

        // --- Layer 2: address-sharded FastTrack / lockset over one
        // shared plan per shard count. ---
        let mut serial_ft_ns = u64::MAX;
        let mut serial_ft = FastTrack::new(n, ShadowMode::Exact);
        for _ in 0..REPS {
            let mut ft = FastTrack::new(n, ShadowMode::Exact);
            let t0 = Instant::now();
            log.replay(&mut ft);
            let ns = t0.elapsed().as_nanos() as u64;
            if ns < serial_ft_ns {
                serial_ft_ns = ns;
                serial_ft = ft;
            }
        }
        let serial_ft_fp = fnv1a(format!("{:?}", serial_ft.races().reports()).as_bytes());

        let mut serial_ls = txrace_hb::Lockset::new(n);
        log.replay(&mut serial_ls);

        // The sync side-stream is derived from the decoded log once per
        // app; every shard count below reuses it and only re-partitions
        // the accesses.
        let t0 = Instant::now();
        let sync = SyncIndex::of(&log);
        let sync_ns = t0.elapsed().as_nanos() as u64;

        for &wc in SHARD_COUNTS {
            let t0 = Instant::now();
            let plan = ShardPlan::with_sync(sync.clone(), &log, wc);
            let plan_ns = sync_ns + t0.elapsed().as_nanos() as u64;

            // One loop yields both figures: the measured wall of the
            // whole sharded pass, and its critical path — the slowest
            // shard's wall, which is what a wc-core host would wait for.
            // Shards run concurrently on at most one thread per core, so
            // on a host with fewer cores than shards they queue rather
            // than time-slice, and no shard wall includes another
            // shard's work.
            let mut best_ns = u64::MAX;
            let mut critical_ns = u64::MAX;
            let mut best = None;
            for _ in 0..REPS {
                let t0 = Instant::now();
                let out = ShardedFastTrack::new(n, wc).run_with_plan(&plan);
                best_ns = best_ns.min(t0.elapsed().as_nanos() as u64);
                assert_eq!(
                    out.races.reports(),
                    serial_ft.races().reports(),
                    "{}: sharded FastTrack diverged at {wc} workers",
                    w.name
                );
                let max_shard = out
                    .shards
                    .iter()
                    .map(|s| s.wall_ns)
                    .max()
                    .expect("at least one shard");
                if max_shard < critical_ns {
                    critical_ns = max_shard;
                    best = Some(out);
                }
            }
            let out = best.expect("at least one rep ran");
            assert_eq!(out.checks, serial_ft.checks(), "{}", w.name);
            let ls_out = ShardedLockset::new(n, wc).run_with_plan(&plan);
            assert_eq!(
                ls_out.reports,
                serial_ls.reports(),
                "{}: sharded lockset diverged at {wc} workers",
                w.name
            );
            let speedup = serial_ft_ns as f64 / best_ns.max(1) as f64;
            let sharded_speedup = serial_ft_ns as f64 / critical_ns.max(1) as f64;
            if wc == 4 {
                sharded_speedups.push(sharded_speedup);
            }
            rows.push(vec![
                ("app", JsonValue::Str(w.name.to_string())),
                ("row", JsonValue::Str("sharded".to_string())),
                ("workers", JsonValue::Int(wc as u64)),
                ("wall_ns", JsonValue::Int(best_ns)),
                ("critical_path_ns", JsonValue::Int(critical_ns)),
                ("plan_ns", JsonValue::Int(plan_ns)),
                ("serial_ft_wall_ns", JsonValue::Int(serial_ft_ns)),
                (
                    "speedup",
                    JsonValue::Num((speedup * 1000.0).round() / 1000.0),
                ),
                (
                    "sharded_speedup",
                    JsonValue::Num((sharded_speedup * 1000.0).round() / 1000.0),
                ),
                ("races", JsonValue::Int(out.races.distinct_count() as u64)),
                ("fingerprint", JsonValue::Int(serial_ft_fp)),
                ("identical", JsonValue::Int(1)),
            ]);
            for s in &out.shards {
                rows.push(vec![
                    ("app", JsonValue::Str(w.name.to_string())),
                    ("row", JsonValue::Str("shard".to_string())),
                    ("workers", JsonValue::Int(wc as u64)),
                    ("shard", JsonValue::Int(s.shard as u64)),
                    ("wall_ns", JsonValue::Int(s.wall_ns)),
                    ("checks", JsonValue::Int(s.checks)),
                    ("events", JsonValue::Int(s.events)),
                    ("races_found", JsonValue::Int(s.races_found)),
                ]);
            }
        }
    }

    rows.push(vec![
        ("app", JsonValue::Str("(total)".to_string())),
        ("row", JsonValue::Str("total".to_string())),
        ("workers", JsonValue::Int(workers as u64)),
        ("seed", JsonValue::Int(seed)),
        (
            "pool",
            JsonValue::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "wall_ns",
            JsonValue::Int(total_start.elapsed().as_nanos() as u64),
        ),
        (
            "sweep_speedup",
            JsonValue::Num((geomean(&sweep_speedups) * 1000.0).round() / 1000.0),
        ),
        (
            "fanout_speedup",
            JsonValue::Num((geomean(&fanout_speedups) * 1000.0).round() / 1000.0),
        ),
        (
            "sharded_speedup_w4",
            JsonValue::Num((geomean(&sharded_speedups) * 1000.0).round() / 1000.0),
        ),
    ]);
    println!("{}", json_rows(&rows));
}
