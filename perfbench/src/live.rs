//! `live`: one op is one `Detector::run` cell, an (app, scheme) pair,
//! over all 17 workloads at 4 simulated workers and the four schemes of
//! the paper's Table 1 path. The interpreter, the HTM simulator and the
//! engine slow path do nearly all of the work.

use std::cell::OnceCell;
use std::collections::BTreeSet;

use txrace::{recall, RunConfig, RunOutcome};
use txrace_hb::{RacePair, RaceSet};
use txrace_workloads::{all_workloads, Workload};

use crate::harness::{fnv1a, Bench, Modeled};
use crate::layers::{self, SchemeKind};
use crate::stats::{geomean, mean_or};
use crate::trace::Tracer;

/// Simulated worker threads per app.
pub const WORKERS: usize = 4;

/// Scheduling seeds per run: `seed`, `seed + 1`, ... Averaging over a
/// few schedules keeps one unlucky interleaving from moving a run.
pub const SEEDS: u64 = 3;

/// The scheduling seeds derived from the benchmark seed.
pub fn sched_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (0..SEEDS).map(move |k| seed.wrapping_add(k))
}

/// The paper's 14 Table 1 applications; the message-passing families
/// have no paper row, so the headline geomeans leave them out.
const PAPER_APPS: [&str; 14] = [
    "blackscholes",
    "fluidanimate",
    "swaptions",
    "freqmine",
    "vips",
    "raytrace",
    "ferret",
    "x264",
    "bodytrack",
    "facesim",
    "streamcluster",
    "dedup",
    "canneal",
    "apache",
];

/// Whether `app` is one of the paper's Table 1 applications.
pub fn is_paper_app(app: &str) -> bool {
    PAPER_APPS.contains(&app)
}

/// The distinct site pairs of a race set.
pub fn pairs(races: &RaceSet) -> BTreeSet<RacePair> {
    races.pairs().collect()
}

/// The planted ground truth of `w`.
pub fn planted(w: &Workload) -> BTreeSet<RacePair> {
    w.planted_pairs().into_iter().map(|(p, _)| p).collect()
}

/// Oracle relations of one `live` cell against the planted manifest:
/// the run completes; TSan finds exactly the planted races; every other
/// scheme reports a subset of them.
pub fn check_cell(kind: SchemeKind, out: &RunOutcome, planted: &BTreeSet<RacePair>) -> Vec<String> {
    let mut failed = Vec::new();
    if !out.completed() {
        failed.push(format!("run did not complete: {:?}", out.run.status));
    }
    let found = pairs(&out.races);
    match kind {
        SchemeKind::Tsan if found != *planted => failed.push(format!(
            "tsan races ({}) != planted manifest ({})",
            found.len(),
            planted.len()
        )),
        SchemeKind::Tsan => {}
        _ if !found.is_subset(planted) => failed.push(format!(
            "{} races not a subset of the planted manifest ({} extra)",
            kind.name(),
            found.difference(planted).count()
        )),
        _ => {}
    }
    failed
}

/// FNV-1a over a run's modeled results: race reports, cycle breakdown,
/// HTM and engine counters, checks and interpreter steps.
pub fn digest_run(out: &RunOutcome) -> u64 {
    let text = format!(
        "{:?}|{:?}|{}|{:?}|{:?}|{}|{}",
        out.races.reports(),
        out.breakdown,
        out.baseline_cycles,
        out.htm,
        out.engine,
        out.checks,
        out.run.steps
    );
    fnv1a(text.as_bytes())
}

/// Per-layer counters of one run, given the uninstrumented probe of the
/// same program and seed (`exec_ns`, `base_steps`).
pub fn count_run(t: &mut Tracer, out: &RunOutcome, exec_ns: u64, base_steps: u64) {
    match (out.htm, out.engine) {
        (Some(h), Some(e)) => {
            let engine_ns = t.op_ns("engine");
            t.count("engine.self_ns", engine_ns as f64 - exec_ns as f64);
            t.count("engine.steps", out.run.steps as f64);
            t.count("engine.base_steps", base_steps as f64);
            t.count("htm.committed", h.committed as f64);
            t.count("htm.conflict_aborts", h.conflict_aborts as f64);
            t.count("htm.capacity_aborts", h.capacity_aborts as f64);
            t.count("htm.unknown_aborts", h.unknown_aborts as f64);
            t.count("htm.attempts", (h.committed + h.total_aborts()) as f64);
            t.count("engine.slow_regions", e.slow_total() as f64);
            t.count("engine.txfail_writes", e.txfail_writes as f64);
            t.count("engine.loop_cuts", e.loop_cuts as f64);
            t.count("engine.checks", out.checks as f64);
            t.count("engine.elided_checks", e.elided_checks as f64);
            if let Some(tm) = &out.telemetry {
                t.count("control.epochs", tm.epochs.len() as f64);
                t.count("control.active", tm.active_epochs() as f64);
            }
        }
        _ => {
            let live_ns = t.op_ns("tsan.live");
            t.count("tsan.self_ns", live_ns as f64 - exec_ns as f64);
            t.count("tsan.checks", out.checks as f64);
        }
    }
}

/// What the modeled metrics need from one run.
#[derive(Debug, Clone)]
pub struct Kept {
    /// Modeled overhead.
    pub overhead: f64,
    /// Races found.
    pub races: RaceSet,
}

impl From<&RunOutcome> for Kept {
    fn from(out: &RunOutcome) -> Self {
        Kept {
            overhead: out.overhead,
            races: out.races.clone(),
        }
    }
}

/// The Table 1 / frontier modeled metrics over `apps` at each of the
/// [`SEEDS`] scheduling seeds, from the TxRace, TxRace+SA-flow and
/// production runs `runs(app, seed index, scheme)` gives (`None` for a
/// failed run, which the failure count already reports).
pub fn modeled_from(
    apps: &[Workload],
    runs: impl Fn(usize, usize, SchemeKind) -> Option<Kept>,
) -> Modeled {
    let (mut tx_ovh, mut prod_ovh, mut tx_recall, mut prod_recall) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let cells =
        (0..SEEDS as usize).flat_map(|s| apps.iter().enumerate().map(move |(a, w)| (s, a, w)));
    for (s, a, w) in cells {
        let tx = runs(a, s, SchemeKind::TxRace);
        let flow = runs(a, s, SchemeKind::TxRaceSaFlow);
        let prod = runs(a, s, SchemeKind::Production);
        let truth = planted(w);
        if let Some(tx) = &tx {
            if !truth.is_empty() {
                let hit = truth.iter().filter(|p| tx.races.contains(p.a, p.b)).count();
                tx_recall.push(hit as f64 / truth.len() as f64);
            }
        }
        if !is_paper_app(w.name) {
            continue;
        }
        if let Some(tx) = &tx {
            tx_ovh.push(tx.overhead);
        }
        if let Some(prod) = &prod {
            prod_ovh.push(prod.overhead);
            if let Some(flow) = &flow {
                prod_recall.push(recall(&prod.races, &flow.races));
            }
        }
    }
    Modeled {
        overhead_txrace: geomean(&tx_ovh),
        overhead_production: geomean(&prod_ovh),
        recall_txrace: mean_or(&tx_recall, 1.0),
        recall_production: mean_or(&prod_recall, 1.0),
    }
}

struct Cell {
    app: usize,
    kind: SchemeKind,
    cfg: RunConfig,
}

/// The `live` workload. Cells are ordered seed-major, then app, then
/// scheme in [`SchemeKind::ALL`] order.
pub struct Live {
    apps: Vec<Workload>,
    cells: Vec<Cell>,
    planted: Vec<Option<BTreeSet<RacePair>>>,
    static_pruned: Vec<OnceCell<f64>>,
    kept: Vec<Option<Kept>>,
}

impl Live {
    /// Builds the 17 workloads and their cells: every (app, scheme) pair
    /// at each scheduling seed.
    pub fn setup(seed: u64, _t: &mut Tracer) -> Live {
        let apps = all_workloads(WORKERS);
        let mut cells = Vec::new();
        for s in sched_seeds(seed) {
            for (app, w) in apps.iter().enumerate() {
                for kind in SchemeKind::ALL {
                    cells.push(Cell {
                        app,
                        kind,
                        cfg: layers::app_config(w, kind, s),
                    });
                }
            }
        }
        Live {
            planted: vec![None; apps.len()],
            static_pruned: (0..apps.len()).map(|_| OnceCell::new()).collect(),
            kept: vec![None; cells.len()],
            apps,
            cells,
        }
    }
}

impl Bench for Live {
    type Out = RunOutcome;

    fn len(&self) -> usize {
        self.cells.len()
    }

    fn input(&self, i: usize) -> (String, u64) {
        let c = &self.cells[i];
        (
            format!("{}/{}", self.apps[c.app].name, c.kind.name()),
            c.cfg.seed,
        )
    }

    fn run(&self, i: usize) -> RunOutcome {
        let c = &self.cells[i];
        layers::detector_run(&self.apps[c.app].program, &c.cfg)
    }

    fn run_traced(&self, i: usize, t: &mut Tracer) -> RunOutcome {
        let c = &self.cells[i];
        layers::run_traced(&self.apps[c.app].program, &c.cfg, t)
    }

    fn probe(&self, i: usize, out: &RunOutcome, t: &mut Tracer) {
        let c = &self.cells[i];
        let p = &self.apps[c.app].program;
        let base = t.span("sim.exec", |_| layers::exec_uninstrumented(p, &c.cfg));
        let exec_ns = t.op_ns("sim.exec");
        t.count("sim.exec.steps", base.steps as f64);
        count_run(t, out, exec_ns, base.steps);
        if c.kind != SchemeKind::Tsan && c.kind != SchemeKind::TxRace {
            let f = t.span("bench.modeled", |_| {
                *self.static_pruned[c.app].get_or_init(|| layers::static_pruned_fraction(p))
            });
            t.count("sa.static_pruned_fraction", f);
        }
    }

    fn check(&mut self, i: usize, out: &RunOutcome) -> Vec<String> {
        let c = &self.cells[i];
        let w = &self.apps[c.app];
        let truth = self.planted[c.app].get_or_insert_with(|| planted(w));
        check_cell(c.kind, out, truth)
    }

    fn digest(&self, out: &RunOutcome) -> u64 {
        digest_run(out)
    }

    fn events(&self, out: &RunOutcome) -> u64 {
        out.run.steps
    }

    fn observe(&mut self, i: usize, out: &RunOutcome) {
        self.kept[i] = Some(out.into());
    }

    fn modeled(&mut self) -> Modeled {
        let (kept, apps) = (&self.kept, self.apps.len());
        modeled_from(&self.apps, |a, s, kind| {
            let k = SchemeKind::ALL.iter().position(|&x| x == kind)?;
            kept[(s * apps + a) * SchemeKind::ALL.len() + k].clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_wrong_manifest_fails_the_cell() {
        let w = txrace_workloads::by_name("fluidanimate", WORKERS).unwrap();
        let cfg = layers::app_config(&w, SchemeKind::Tsan, 42);
        let out = layers::detector_run(&w.program, &cfg);
        let truth = planted(&w);
        assert!(check_cell(SchemeKind::Tsan, &out, &truth).is_empty());
        // A reference with one race missing: TSan now over-reports.
        let mut wrong = truth.clone();
        let first = *wrong.iter().next().unwrap();
        wrong.remove(&first);
        assert_eq!(check_cell(SchemeKind::Tsan, &out, &wrong).len(), 1);
        assert_eq!(check_cell(SchemeKind::TxRace, &out, &wrong).len(), 1);
    }

    #[test]
    fn traced_decomposition_matches_detector_run() {
        let w = txrace_workloads::by_name("streamcluster", WORKERS).unwrap();
        for kind in SchemeKind::ALL {
            let cfg = layers::app_config(&w, kind, 7);
            let plain = layers::detector_run(&w.program, &cfg);
            let mut t = Tracer::default();
            let traced = layers::run_traced(&w.program, &cfg, &mut t);
            assert_eq!(digest_run(&plain), digest_run(&traced), "{}", kind.name());
        }
    }
}
