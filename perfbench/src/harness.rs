//! The closed loop shared by every workload: set up, run whole rounds of
//! ops until the time is up, check each op against its oracle outside
//! the stopwatch, and turn the samples into metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{Tracer, SETUP_OP};

/// One failed op: which op, on what input, and which relation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Op id (position in the run, counting from 0).
    pub op: u64,
    /// The input: app and scheme, artifact, or generated program.
    pub input: String,
    /// Seed of the input.
    pub seed: u64,
    /// The relation that failed.
    pub relation: String,
}

/// Modeled (deterministic, simulated-cycle) results of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modeled {
    /// Geomean modeled overhead of TxRace.
    pub overhead_txrace: f64,
    /// Geomean modeled overhead of ProductionMode at budget 1.2.
    pub overhead_production: f64,
    /// Mean recall of TxRace against the ground truth.
    pub recall_txrace: f64,
    /// Mean recall of ProductionMode against TxRace+SA-flow.
    pub recall_production: f64,
}

/// A workload: a fixed list of ops, run in rounds.
pub trait Bench {
    /// What one op produces.
    type Out;
    /// Ops in one round.
    fn len(&self) -> usize;
    /// Input label and seed of op `i`, for failure reports.
    fn input(&self, i: usize) -> (String, u64);
    /// Runs op `i` untraced.
    fn run(&self, i: usize) -> Self::Out;
    /// Runs op `i` with a span around each layer call.
    fn run_traced(&self, i: usize, t: &mut Tracer) -> Self::Out;
    /// After a traced op: probe spans and per-layer counters.
    fn probe(&self, i: usize, out: &Self::Out, t: &mut Tracer);
    /// Relations op `i`'s output fails; empty when it is correct.
    fn check(&mut self, i: usize, out: &Self::Out) -> Vec<String>;
    /// FNV-1a digest of the output's modeled results.
    fn digest(&self, out: &Self::Out) -> u64;
    /// Events the op processed (interpreter steps or log events).
    fn events(&self, out: &Self::Out) -> u64;
    /// Keeps what [`Bench::modeled`] needs from a first-round output.
    fn observe(&mut self, i: usize, out: &Self::Out);
    /// Modeled results, from the observed outputs (plus any runs the
    /// workload's ops do not make, done outside the stopwatch).
    fn modeled(&mut self) -> Modeled;
}

/// Samples of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of each op, in ns.
    pub op_ns: Vec<u64>,
    /// Events processed.
    pub events: u64,
    /// Whole rounds run.
    pub rounds: u64,
    /// Wall time of the phase, in ns.
    pub wall_ns: u64,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunReport {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// The untraced phase.
    pub untraced: Phase,
    /// The traced phase (traced runs only).
    pub traced: Option<Phase>,
    /// The tracer (spans of set-up and the traced phase).
    pub tracer: Tracer,
    /// Ops attempted across phases.
    pub attempted: u64,
    /// Every failure.
    pub failures: Vec<Failure>,
    /// Distinct failed ops.
    pub failed_ops: u64,
    /// FNV-1a over the first round's per-op digests.
    pub digest: u64,
    /// Modeled results.
    pub modeled: Modeled,
    /// Peak resident set, MB.
    pub peak_rss_mb: f64,
}

/// Set-up repetitions: at least this many...
const SETUP_MIN_REPS: usize = 5;
/// ...and more until this much time was spent, up to [`SETUP_MAX_REPS`].
const SETUP_MIN_TIME: Duration = Duration::from_secs(1);
const SETUP_MAX_REPS: usize = 1000;

/// Runs a workload: set-up, then `seconds` of whole rounds (traced runs
/// split the time between an untraced and a traced half).
pub fn run<B: Bench>(setup: impl Fn(&mut Tracer) -> B, seconds: f64, traced: bool) -> RunReport {
    let mut tracer = Tracer::default();
    let mut setup_s = Vec::new();
    let mut bench = if traced {
        let t0 = Instant::now();
        let b = setup(&mut tracer);
        setup_s.push(t0.elapsed().as_secs_f64());
        b
    } else {
        let started = Instant::now();
        loop {
            let mut discarded = Tracer::default();
            let t0 = Instant::now();
            let b = setup(&mut discarded);
            setup_s.push(t0.elapsed().as_secs_f64());
            let enough = setup_s.len() >= SETUP_MIN_REPS && started.elapsed() >= SETUP_MIN_TIME;
            if enough || setup_s.len() >= SETUP_MAX_REPS {
                break b;
            }
        }
    };
    assert!(bench.len() > 0, "a workload needs at least one op");

    let mut st = LoopState {
        next_op: 0,
        digests: vec![None; bench.len()],
        failures: Vec::new(),
        failed_ops: 0,
    };
    // One checked but untimed round first, so allocator and cache
    // warm-up do not land in the first timed samples.
    let _ = measure(&mut bench, 0.0, None, &mut st);
    let warmup_ops = st.next_op;
    let (untraced, traced_phase) = if traced {
        let u = measure(&mut bench, seconds / 2.0, None, &mut st);
        let t = measure(&mut bench, seconds / 2.0, Some(&mut tracer), &mut st);
        (u, Some(t))
    } else {
        (measure(&mut bench, seconds, None, &mut st), None)
    };
    let digest = fnv1a_words(st.digests.iter().map(|d| d.unwrap_or(0)));
    let modeled = bench.modeled();
    let attempted = warmup_ops
        + untraced.op_ns.len() as u64
        + traced_phase.as_ref().map_or(0, |p| p.op_ns.len() as u64);
    RunReport {
        setup_s,
        untraced,
        traced: traced_phase,
        tracer,
        attempted,
        failures: st.failures,
        failed_ops: st.failed_ops,
        digest,
        modeled,
        peak_rss_mb: peak_rss_mb(),
    }
}

struct LoopState {
    next_op: u64,
    /// First digest seen per op index; later rounds must repeat it.
    digests: Vec<Option<u64>>,
    failures: Vec<Failure>,
    failed_ops: u64,
}

fn measure<B: Bench>(
    bench: &mut B,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    st: &mut LoopState,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    loop {
        for i in 0..bench.len() {
            let op = st.next_op;
            st.next_op += 1;
            let b = &*bench;
            let t0 = Instant::now();
            let out = match tracer.as_deref_mut() {
                None => catch_unwind(AssertUnwindSafe(|| b.run(i))),
                Some(t) => {
                    t.set_op(op);
                    catch_unwind(AssertUnwindSafe(|| t.span("op", |t| b.run_traced(i, t))))
                }
            };
            phase.op_ns.push(t0.elapsed().as_nanos() as u64);

            let mut failed = Vec::new();
            match out {
                Err(_) => failed.push("run panicked".to_string()),
                Ok(out) => {
                    if let Some(t) = tracer.as_deref_mut() {
                        if catch_unwind(AssertUnwindSafe(|| bench.probe(i, &out, t))).is_err() {
                            t.close_abandoned();
                            failed.push("probe panicked".to_string());
                        }
                    }
                    phase.events += bench.events(&out);
                    let mut check = || check_op(bench, i, &out, &mut st.digests[i]);
                    failed.extend(match tracer.as_deref_mut() {
                        Some(t) => t.span("bench.check", |_| check()),
                        None => check(),
                    });
                }
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.close_abandoned();
            }
            if !failed.is_empty() {
                st.failed_ops += 1;
                let (input, seed) = bench.input(i);
                st.failures
                    .extend(failed.into_iter().map(|relation| Failure {
                        op,
                        input: input.clone(),
                        seed,
                        relation,
                    }));
            }
        }
        phase.rounds += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase.wall_ns = start.elapsed().as_nanos() as u64;
    phase
}

/// Checks one op: its oracle relations, then its digest against the
/// first round's (the modeled results must repeat exactly, traced or
/// not). The first round's output is also handed to [`Bench::observe`].
fn check_op<B: Bench>(
    bench: &mut B,
    i: usize,
    out: &B::Out,
    first: &mut Option<u64>,
) -> Vec<String> {
    let mut failed = catch_unwind(AssertUnwindSafe(|| bench.check(i, out)))
        .unwrap_or_else(|_| vec!["check panicked".to_string()]);
    let d = bench.digest(out);
    match *first {
        None => {
            *first = Some(d);
            bench.observe(i, out);
        }
        Some(f) if f != d => failed.push(format!(
            "modeled digest {d:#018x} differs from the first round's {f:#018x}"
        )),
        Some(_) => {}
    }
    failed
}

/// FNV-1a over bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the little-endian bytes of `words`.
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

/// Peak resident set size of this process, from `/proc/self/status`.
///
/// # Panics
///
/// Panics when the kernel does not report it: the metric cannot be
/// measured, and a made-up value would be worse than no run.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

impl RunReport {
    /// The tail percentile used and the samples beyond it.
    pub fn tail(&self) -> Option<(f64, usize)> {
        let n = self.untraced.op_ns.len();
        stats::tail_percentile(n).map(|p| (p, stats::beyond(n, p)))
    }

    /// End-to-end metric values, from the untraced phase.
    ///
    /// # Panics
    ///
    /// Panics when the run was too short to have ten samples beyond the
    /// median.
    pub fn end_to_end(&self) -> Vec<Value> {
        let u = &self.untraced;
        let busy_s = u.op_ns.iter().sum::<u64>() as f64 / 1e9;
        let mut lat: Vec<f64> = u.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        lat.sort_by(f64::total_cmp);
        let (tail_p, _) = self
            .tail()
            .expect("too few ops for a tail percentile: raise --seconds");
        let md = self.modeled;
        END_TO_END
            .iter()
            .map(|d| {
                let value = match d.name {
                    "setup_s" => stats::median(&self.setup_s),
                    "ops_per_s" => u.op_ns.len() as f64 / busy_s,
                    "events_per_s" => u.events as f64 / busy_s,
                    "latency_p50_ms" => stats::percentile(&lat, 50.0),
                    "latency_tail_ms" => stats::percentile(&lat, tail_p),
                    "peak_rss_mb" => self.peak_rss_mb,
                    "modeled_overhead_txrace" => md.overhead_txrace,
                    "modeled_overhead_production" => md.overhead_production,
                    "recall_txrace" => md.recall_txrace,
                    "recall_production" => md.recall_production,
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                Value { def: d, value }
            })
            .collect()
    }

    /// Mean op wall time of a phase, ns.
    fn mean_op_ns(p: &Phase) -> f64 {
        p.op_ns.iter().sum::<u64>() as f64 / p.op_ns.len().max(1) as f64
    }

    /// Share of the traced phase's wall time that layer spans cover by
    /// their self time (everything but the `op` roots' own glue).
    pub fn span_coverage(&self) -> f64 {
        let Some(tp) = &self.traced else { return 0.0 };
        let t = &self.tracer;
        let covered: u64 = t
            .spans()
            .iter()
            .zip(t.self_ns())
            .filter(|(s, _)| s.op != SETUP_OP && s.name != "op")
            .map(|(_, own)| own)
            .sum();
        covered as f64 / tp.wall_ns.max(1) as f64
    }

    /// Per-layer metric values, from the traced phase and set-up spans.
    ///
    /// # Panics
    ///
    /// Panics on a run that was not traced.
    pub fn per_layer(&self) -> Vec<Value> {
        let tp = self
            .traced
            .as_ref()
            .expect("per-layer metrics need a traced run");
        let t = &self.tracer;
        let span = |name: &str| ratio(t.total_ns(name), t.calls(name));
        PER_LAYER
            .iter()
            .map(|d| {
                let value = match d.name {
                    "sim.exec.ns" => span("sim.exec"),
                    "sim.exec.ns_per_step" => {
                        ratio(t.total_ns("sim.exec"), t.sum("sim.exec.steps"))
                    }
                    "sim.lint.ns" => span("sim.lint"),
                    "sa.flow.ns" => span("sa.flow"),
                    "instrument.ns" => span("instrument"),
                    "engine.ns" => span("engine"),
                    "engine.step_ratio" => ratio(t.sum("engine.steps"), t.sum("engine.base_steps")),
                    "htm.commit_ratio" => ratio(t.sum("htm.committed"), t.sum("htm.attempts")),
                    "control.active_ratio" => {
                        ratio(t.sum("control.active"), t.sum("control.epochs"))
                    }
                    "tsan.live_ns" => span("tsan.live"),
                    "tsan.ns_per_check" => ratio(t.sum("tsan.self_ns"), t.sum("tsan.checks")),
                    "trace.record.ns" => span("trace.record"),
                    "trace.encode.ns" => span("trace.encode"),
                    "trace.decode.ns" => span("trace.decode"),
                    "trace.bytes_per_event" => ratio(t.sum("trace.bytes"), t.sum("trace.events")),
                    "trace.sync_index.ns" => span("trace.sync_index"),
                    "trace.partition.ns" => span("trace.partition"),
                    "replay.fanout.ns" => span("replay.fanout"),
                    "replay.fanout.efficiency" => {
                        ratio(t.sum("fanout.group_ns"), t.sum("fanout.width_ns"))
                    }
                    "hb.tsan_replay.ns" => span("hb.tsan_replay"),
                    "hb.fasttrack.ns" => span("hb.fasttrack"),
                    "hb.vcref.ns" => span("hb.vcref"),
                    "hb.lockset.ns" => span("hb.lockset"),
                    "hb.sharded.ns" => span("hb.sharded"),
                    "bench.check_ns" => span("bench.check"),
                    "bench.trace_overhead" => {
                        ratio(Self::mean_op_ns(tp), Self::mean_op_ns(&self.untraced))
                    }
                    "bench.span_coverage" => self.span_coverage(),
                    // Everything else is a counter, averaged per sample.
                    counter => t.mean(counter),
                };
                Value { def: d, value }
            })
            .collect()
    }
}

/// `num / den`, or 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Looks up a value by metric name (NaN when absent).
pub fn value_of(values: &[Value], name: &str) -> f64 {
    values
        .iter()
        .find(|v| v.def.name == name)
        .map_or(f64::NAN, |v| v.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy workload whose oracle reference can be made wrong.
    struct Toy {
        reference: Vec<u64>,
        observed: usize,
    }

    impl Bench for Toy {
        type Out = u64;
        fn len(&self) -> usize {
            self.reference.len()
        }
        fn input(&self, i: usize) -> (String, u64) {
            (format!("toy{i}"), 7)
        }
        fn run(&self, i: usize) -> u64 {
            if i == 3 {
                panic!("injected run failure");
            }
            (i as u64) * 2
        }
        fn run_traced(&self, i: usize, t: &mut Tracer) -> u64 {
            t.span("sim.exec", |_| self.run(i))
        }
        fn probe(&self, _: usize, out: &u64, t: &mut Tracer) {
            t.count("sim.exec.steps", *out as f64);
        }
        fn check(&mut self, i: usize, out: &u64) -> Vec<String> {
            if *out == self.reference[i] {
                Vec::new()
            } else {
                vec![format!("out {out} != reference {}", self.reference[i])]
            }
        }
        fn digest(&self, out: &u64) -> u64 {
            fnv1a_words([*out])
        }
        fn events(&self, out: &u64) -> u64 {
            *out
        }
        fn observe(&mut self, _: usize, _: &u64) {
            self.observed += 1;
        }
        fn modeled(&mut self) -> Modeled {
            Modeled {
                overhead_txrace: 1.0,
                overhead_production: 1.0,
                recall_txrace: 1.0,
                recall_production: 1.0,
            }
        }
    }

    fn toy(reference: Vec<u64>) -> impl Fn(&mut Tracer) -> Toy {
        move |_| Toy {
            reference: reference.clone(),
            observed: 0,
        }
    }

    #[test]
    fn wrong_reference_counts_failed_ops() {
        // Op 1's reference is wrong on purpose; op 3 panics.
        let report = run(toy(vec![0, 99, 4, 6, 8]), 0.01, false);
        // The untimed warm-up round is checked and counted too.
        let rounds = report.untraced.rounds + 1;
        assert_eq!(report.attempted, 5 * rounds);
        assert_eq!(report.failed_ops, 2 * rounds);
        let first = &report.failures[0];
        assert_eq!(first.input, "toy1");
        assert_eq!(first.seed, 7);
        assert!(first.relation.contains("reference 99"));
        assert!(report
            .failures
            .iter()
            .any(|f| f.input == "toy3" && f.relation == "run panicked"));
    }

    #[test]
    fn correct_reference_counts_no_failures_and_traces() {
        let report = run(toy(vec![0, 2, 4, 6, 8]), 0.02, true);
        // Only the injected panic fails.
        let traced = report.traced.as_ref().unwrap();
        let rounds = 1 + report.untraced.rounds + traced.rounds;
        assert_eq!(report.failed_ops, rounds);
        assert!(report.failures.iter().all(|f| f.input == "toy3"));
        assert!(report
            .tracer
            .spans()
            .iter()
            .any(|s| s.name == "bench.check"));
        assert!(report.span_coverage() > 0.0);
        let layer = report.per_layer();
        assert_eq!(layer.len(), PER_LAYER.len());
        assert!(value_of(&layer, "sim.exec.steps") > 0.0);
    }
}
