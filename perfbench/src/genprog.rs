//! `genprog`: one op is one generated program, run under TSan and then
//! under TxRace+SA-flow with `Detector::run`. Many small, varied
//! programs make the per-program front end (lint, flow analysis,
//! instrumentation) the main cost.

use std::cell::OnceCell;
use std::collections::BTreeSet;

use txrace::{recall, RunConfig, RunOutcome};
use txrace_hb::{RacePair, RaceSet};
use txrace_sim::Program;
use txrace_workloads::{random_program, GenConfig};

use crate::harness::{fnv1a_words, Bench, Modeled};
use crate::layers::{self, SchemeKind};
use crate::live::{count_run, digest_run, pairs};
use crate::stats::{geomean, mean_or};
use crate::trace::Tracer;

/// Programs generated per run; a round runs each once.
pub const PROGRAMS: usize = 256;

/// Shape of every generated program.
pub const SHAPE: GenConfig = GenConfig {
    threads: 4,
    ops_per_thread: 400,
    shared_vars: 16,
    locks: 4,
    conds: 2,
    chans: 2,
};

/// SplitMix64: derives independent seeds from the benchmark seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Input {
    program: Program,
    gen_seed: u64,
    tsan: RunConfig,
    flow: RunConfig,
}

/// The oracle's view of one program, computed once outside the
/// stopwatch: FastTrack and vcref replays of an uncached recording at
/// the run seed, and the static may-race verdicts of the race sets seen
/// so far. The candidate pairs themselves are large, so only verdicts
/// are kept; a race set not seen before re-runs the analysis.
struct Reference {
    fasttrack: BTreeSet<RacePair>,
    addrs_agree: bool,
    covered: Vec<(BTreeSet<RacePair>, bool)>,
}

impl Reference {
    /// Whether the program's may-race candidates cover `races`.
    fn covers(&mut self, p: &Program, races: &RaceSet) -> bool {
        let key = pairs(races);
        if let Some((_, v)) = self.covered.iter().find(|(k, _)| *k == key) {
            return *v;
        }
        let v = layers::may_race_covers(p, races);
        self.covered.push((key, v));
        v
    }
}

/// The `genprog` workload.
pub struct GenProg {
    inputs: Vec<Input>,
    refs: Vec<Option<Reference>>,
    static_pruned: Vec<OnceCell<f64>>,
    kept: Vec<Option<(RaceSet, RaceSet)>>,
}

impl GenProg {
    /// Generates [`PROGRAMS`] programs from `seed`.
    pub fn setup(seed: u64, _t: &mut Tracer) -> GenProg {
        let inputs: Vec<Input> = (0..PROGRAMS as u64)
            .map(|k| {
                let gen_seed = mix(seed ^ mix(k));
                let run_seed = mix(gen_seed);
                Input {
                    program: random_program(&SHAPE, gen_seed),
                    gen_seed,
                    tsan: layers::plain_config(SchemeKind::Tsan, run_seed),
                    flow: layers::plain_config(SchemeKind::TxRaceSaFlow, run_seed),
                }
            })
            .collect();
        GenProg {
            refs: (0..inputs.len()).map(|_| None).collect(),
            static_pruned: (0..inputs.len()).map(|_| OnceCell::new()).collect(),
            kept: vec![None; inputs.len()],
            inputs,
        }
    }
}

fn racy_addrs(races: &RaceSet) -> BTreeSet<txrace_sim::Addr> {
    races.reports().iter().map(|r| r.addr).collect()
}

impl Bench for GenProg {
    type Out = (RunOutcome, RunOutcome);

    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn input(&self, i: usize) -> (String, u64) {
        let inp = &self.inputs[i];
        (
            format!("program#{i} (gen seed {:#x})", inp.gen_seed),
            inp.tsan.seed,
        )
    }

    fn run(&self, i: usize) -> Self::Out {
        let inp = &self.inputs[i];
        (
            layers::detector_run(&inp.program, &inp.tsan),
            layers::detector_run(&inp.program, &inp.flow),
        )
    }

    fn run_traced(&self, i: usize, t: &mut Tracer) -> Self::Out {
        let inp = &self.inputs[i];
        (
            layers::run_traced(&inp.program, &inp.tsan, t),
            layers::run_traced(&inp.program, &inp.flow, t),
        )
    }

    fn probe(&self, i: usize, out: &Self::Out, t: &mut Tracer) {
        let inp = &self.inputs[i];
        let base = t.span("sim.exec", |_| {
            layers::exec_uninstrumented(&inp.program, &inp.tsan)
        });
        let exec_ns = t.op_ns("sim.exec");
        t.count("sim.exec.steps", base.steps as f64);
        count_run(t, &out.0, exec_ns, base.steps);
        count_run(t, &out.1, exec_ns, base.steps);
        let p = &inp.program;
        let f = t.span("bench.modeled", |_| {
            *self.static_pruned[i].get_or_init(|| layers::static_pruned_fraction(p))
        });
        t.count("sa.static_pruned_fraction", f);
    }

    fn check(&mut self, i: usize, out: &Self::Out) -> Vec<String> {
        let inp = &self.inputs[i];
        let r = self.refs[i].get_or_insert_with(|| {
            let log = layers::record(&inp.program, &inp.tsan);
            let threads = inp.program.thread_count();
            let ft = layers::fasttrack_replay(&log, threads);
            let vc = layers::vcref_replay(&log, threads);
            Reference {
                fasttrack: pairs(ft.races()),
                addrs_agree: racy_addrs(ft.races()) == racy_addrs(vc.races()),
                covered: Vec::new(),
            }
        });
        let (tsan, flow) = out;
        let mut failed = Vec::new();
        for (name, o) in [("tsan", tsan), ("txrace+sa-flow", flow)] {
            if !o.completed() {
                failed.push(format!("{name} run did not complete: {:?}", o.run.status));
            }
            if !r.covers(&inp.program, &o.races) {
                failed.push(format!("may-race pairs do not cover the {name} races"));
            }
        }
        if pairs(&tsan.races) != r.fasttrack {
            failed.push("tsan live races != fasttrack replay races".to_string());
        }
        if !r.addrs_agree {
            failed.push("fasttrack racy addresses != vcref racy addresses".to_string());
        }
        failed
    }

    fn digest(&self, out: &Self::Out) -> u64 {
        fnv1a_words([digest_run(&out.0), digest_run(&out.1)])
    }

    fn events(&self, out: &Self::Out) -> u64 {
        out.0.run.steps + out.1.run.steps
    }

    fn observe(&mut self, i: usize, out: &Self::Out) {
        self.kept[i] = Some((out.0.races.clone(), out.1.races.clone()));
    }

    /// TxRace recall is measured against TSan (generated programs have
    /// no planted manifest) and production recall against the op's own
    /// TxRace+SA-flow run. The ops run neither TxRace nor production, so
    /// those two runs per program happen here, outside the stopwatch.
    fn modeled(&mut self) -> Modeled {
        let (mut tx_ovh, mut prod_ovh, mut tx_recall, mut prod_recall) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (inp, kept) in self.inputs.iter().zip(&self.kept) {
            let Some((tsan, flow)) = kept else { continue };
            let at = |kind: SchemeKind| {
                layers::detector_run(&inp.program, &kind.configure(inp.tsan.clone()))
            };
            let tx = at(SchemeKind::TxRace);
            let prod = at(SchemeKind::Production);
            tx_ovh.push(tx.overhead);
            prod_ovh.push(prod.overhead);
            if !tsan.is_empty() {
                tx_recall.push(recall(&tx.races, tsan));
            }
            prod_recall.push(recall(&prod.races, flow));
        }
        Modeled {
            overhead_txrace: geomean(&tx_ovh),
            overhead_production: geomean(&prod_ovh),
            recall_txrace: mean_or(&tx_recall, 1.0),
            recall_production: mean_or(&prod_recall, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_derive_from_the_seed() {
        let a = GenProg::setup(5, &mut Tracer::default());
        let b = GenProg::setup(5, &mut Tracer::default());
        let c = GenProg::setup(6, &mut Tracer::default());
        assert_eq!(a.len(), PROGRAMS);
        assert_eq!(a.inputs[3].gen_seed, b.inputs[3].gen_seed);
        assert_ne!(a.inputs[3].gen_seed, c.inputs[3].gen_seed);
        assert_eq!(
            format!("{:?}", a.inputs[3].program),
            format!("{:?}", b.inputs[3].program)
        );
    }

    #[test]
    fn generated_op_passes_its_oracle() {
        let mut g = GenProg::setup(42, &mut Tracer::default());
        let out = g.run(0);
        assert_eq!(g.check(0, &out), Vec::<String>::new());
        let mut t = Tracer::default();
        let traced = g.run_traced(0, &mut t);
        assert_eq!(g.digest(&out), g.digest(&traced));
    }
}
