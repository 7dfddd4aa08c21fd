//! Every metric the benchmark reports: name, unit, direction and the
//! layer it measures. `BENCHMARK.json` declares the same lists; a test
//! keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Layer (module) the metric measures; `end-to-end` for user-visible
    /// metrics.
    pub layer: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        layer,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by an untraced run (`--trace 0`).
pub static END_TO_END: [MetricDef; 10] = [
    m("setup_s", "s", Lower, "end-to-end"),
    m("ops_per_s", "1/s", Higher, "end-to-end"),
    m("events_per_s", "1/s", Higher, "end-to-end"),
    m("latency_p50_ms", "ms", Lower, "end-to-end"),
    m("latency_tail_ms", "ms", Lower, "end-to-end"),
    m("peak_rss_mb", "MB", Lower, "end-to-end"),
    m(
        "modeled_overhead_txrace",
        "x",
        Lower,
        "end-to-end (modeled)",
    ),
    m(
        "modeled_overhead_production",
        "x",
        Lower,
        "end-to-end (modeled)",
    ),
    m("recall_txrace", "fraction", Higher, "end-to-end (modeled)"),
    m(
        "recall_production",
        "fraction",
        Higher,
        "end-to-end (modeled)",
    ),
];

/// Per-layer metrics, reported by a traced run (`--trace 1`).
pub static PER_LAYER: [MetricDef; 47] = [
    m("sim.exec.ns", "ns", Lower, "sim.exec"),
    m("sim.exec.steps", "count", Lower, "sim.exec"),
    m("sim.exec.ns_per_step", "ns", Lower, "sim.exec"),
    m("sim.lint.ns", "ns", Lower, "sim.lint"),
    m("sa.flow.ns", "ns", Lower, "txrace.sa"),
    m("sa.static_pruned_fraction", "fraction", Higher, "txrace.sa"),
    m("instrument.ns", "ns", Lower, "txrace.instrument"),
    m("instrument.regions", "count", Lower, "txrace.instrument"),
    m("engine.ns", "ns", Lower, "txrace.engine"),
    m("engine.self_ns", "ns", Lower, "txrace.engine"),
    m("engine.step_ratio", "ratio", Lower, "txrace.engine"),
    m("htm.committed", "count", Higher, "htm"),
    m("htm.conflict_aborts", "count", Lower, "htm"),
    m("htm.capacity_aborts", "count", Lower, "htm"),
    m("htm.unknown_aborts", "count", Lower, "htm"),
    m("htm.commit_ratio", "ratio", Higher, "htm"),
    m("engine.slow_regions", "count", Lower, "txrace.engine"),
    m("engine.txfail_writes", "count", Lower, "txrace.engine"),
    m("engine.loop_cuts", "count", Lower, "txrace.engine"),
    m("engine.checks", "count", Lower, "txrace.engine"),
    m("engine.elided_checks", "count", Higher, "txrace.engine"),
    m("control.epochs", "count", Lower, "txrace.control"),
    m("control.active_ratio", "ratio", Higher, "txrace.control"),
    m("tsan.live_ns", "ns", Lower, "txrace.baselines"),
    m("tsan.self_ns", "ns", Lower, "txrace.baselines"),
    m("tsan.checks", "count", Lower, "txrace.baselines"),
    m("tsan.ns_per_check", "ns", Lower, "txrace.baselines"),
    m("trace.record.ns", "ns", Lower, "sim.trace"),
    m("trace.encode.ns", "ns", Lower, "sim.trace"),
    m("trace.decode.ns", "ns", Lower, "sim.trace"),
    m("trace.events", "count", Lower, "sim.trace"),
    m("trace.bytes_per_event", "B", Lower, "sim.trace"),
    m("trace.sync_index.ns", "ns", Lower, "sim.trace"),
    m("trace.partition.ns", "ns", Lower, "sim.trace"),
    m("trace.sync_events", "count", Lower, "sim.trace"),
    m("replay.fanout.ns", "ns", Lower, "sim.replay"),
    m("replay.fanout.efficiency", "ratio", Higher, "sim.replay"),
    m("hb.tsan_replay.ns", "ns", Lower, "hb"),
    m("hb.fasttrack.ns", "ns", Lower, "hb"),
    m("hb.vcref.ns", "ns", Lower, "hb"),
    m("hb.lockset.ns", "ns", Lower, "hb"),
    m("hb.sharded.ns", "ns", Lower, "hb"),
    m("hb.sharded.critical_ns", "ns", Lower, "hb"),
    m("hb.sharded.imbalance", "ratio", Lower, "hb"),
    m("bench.check_ns", "ns", Lower, "bench"),
    m("bench.trace_overhead", "ratio", Lower, "bench"),
    m("bench.span_coverage", "fraction", Higher, "bench"),
];

/// Checks a metric list against the naming rules: a name starts with a
/// letter or digit, has at most 64 letters, digits, `_`, `.` and `-`,
/// and is used once; a unit has at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn check_names(defs: &[MetricDef]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for d in defs {
        let n = d.name;
        let first_ok = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        let body_ok = n
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        if !first_ok || !body_ok || n.len() > 64 {
            return Err(format!("bad metric name {n:?}"));
        }
        if !seen.insert(n) {
            return Err(format!("metric name {n:?} used twice"));
        }
        let u = d.unit;
        if u.is_empty()
            || u.len() > 16
            || !u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        {
            return Err(format!("bad unit {u:?} on {n}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse::parse;

    #[test]
    fn declared_names_follow_the_rules() {
        check_names(&END_TO_END).unwrap();
        check_names(&PER_LAYER).unwrap();
        let all: Vec<MetricDef> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| m(d.name, d.unit, d.better, d.layer))
            .collect();
        check_names(&all).unwrap();
    }

    #[test]
    fn name_check_rejects_bad_names() {
        let bad = |name, unit| check_names(&[m(name, unit, Lower, "x")]);
        assert!(bad("_lead", "ms").is_err());
        assert!(bad("has space", "ms").is_err());
        assert!(bad(&*"n".repeat(65).leak(), "ms").is_err());
        assert!(bad("ok", "").is_err());
        assert!(bad("ok", "m s").is_err());
        assert!(bad("ok.name-1_x", "1/s").is_ok());
        assert!(check_names(&[m("a", "s", Lower, "x"), m("a", "s", Lower, "x")]).is_err());
    }

    /// `BENCHMARK.json` declares exactly these metrics, in this order,
    /// with the same units and directions.
    #[test]
    fn benchmark_json_matches_definitions() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).expect(key).arr();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j.get("name").and_then(|v| v.str()), Some(d.name));
                assert_eq!(j.get("unit").and_then(|v| v.str()), Some(d.unit));
                assert_eq!(
                    j.get("better").and_then(|v| v.str()),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(|n| n.str()))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
