//! `replay`: one op takes one stored trace artifact through the
//! record-once/detect-many path. It decodes the artifact, fans the
//! 15-detector panel out over the log, and runs 2-shard FastTrack over a
//! fresh shard plan. Recording and encoding happen in set-up only.

use std::collections::BTreeSet;

use txrace::PanelConsumer;
use txrace_hb::{RacePair, RaceSet, ShardedFtOutcome};
use txrace_sim::{Addr, EventLog, FanOutReport};
use txrace_workloads::{all_workloads, Workload};

use crate::harness::{fnv1a, fnv1a_words, Bench, Modeled};
use crate::layers::{self, SchemeKind, PANEL_FASTTRACK, PANEL_FULL_TSAN, PANEL_VCREF};
use crate::live::{self, Kept, WORKERS};
use crate::trace::Tracer;

/// Fan-out width and shard count asked for; both are capped at `nproc`.
const WIDTH: usize = 2;

/// One decoded and detected artifact.
pub struct Detected {
    log: EventLog,
    panel: Vec<FanOutReport<PanelConsumer>>,
    sharded: ShardedFtOutcome,
    slices: Vec<usize>,
    sync_events: usize,
}

/// One stored recording: the encoded log of `app` at `seed`.
struct Artifact {
    app: usize,
    seed: u64,
    bytes: Vec<u8>,
}

/// The `replay` workload.
pub struct Replay {
    seed: u64,
    width: usize,
    apps: Vec<Workload>,
    artifacts: Vec<Artifact>,
    planted: Vec<Option<BTreeSet<RacePair>>>,
}

impl Replay {
    /// Builds the 17 workloads, records each once (uncached) at every
    /// scheduling seed `live` uses, and encodes the recordings.
    pub fn setup(seed: u64, t: &mut Tracer) -> Replay {
        let apps = all_workloads(WORKERS);
        let mut artifacts = Vec::new();
        for s in live::sched_seeds(seed) {
            for (app, w) in apps.iter().enumerate() {
                let cfg = layers::app_config(w, SchemeKind::Tsan, s);
                let log = t.span("trace.record", |_| layers::record(&w.program, &cfg));
                let bytes = t.span("trace.encode", |_| layers::encode(&log));
                artifacts.push(Artifact {
                    app,
                    seed: s,
                    bytes,
                });
            }
        }
        Replay {
            seed,
            width: width(),
            planted: vec![None; apps.len()],
            apps,
            artifacts,
        }
    }
}

/// Fan-out width and shard count in use: [`WIDTH`] capped at `nproc`.
pub fn width() -> usize {
    WIDTH.min(layers::nproc())
}

fn racy_addrs(races: &RaceSet) -> BTreeSet<Addr> {
    races.reports().iter().map(|r| r.addr).collect()
}

impl Bench for Replay {
    type Out = Result<Detected, String>;

    fn len(&self) -> usize {
        self.artifacts.len()
    }

    fn input(&self, i: usize) -> (String, u64) {
        let a = &self.artifacts[i];
        (format!("{}.txlog", self.apps[a.app].name), a.seed)
    }

    fn run(&self, i: usize) -> Self::Out {
        let a = &self.artifacts[i];
        let log = layers::decode(&a.bytes)?;
        let panel = layers::fan_out(&log, layers::panel(&self.apps[a.app], a.seed), self.width);
        let plan = layers::partition(layers::sync_index(&log), &log, self.width);
        let sharded = layers::sharded_fasttrack(&plan);
        let slices = (0..plan.shards())
            .map(|s| plan.partition().slice(s).len())
            .collect();
        let sync_events = plan.sync().len();
        Ok(Detected {
            log,
            panel,
            sharded,
            slices,
            sync_events,
        })
    }

    fn run_traced(&self, i: usize, t: &mut Tracer) -> Self::Out {
        let a = &self.artifacts[i];
        let log = t.span("trace.decode", |_| layers::decode(&a.bytes))?;
        let panel = t.span("replay.fanout", |_| {
            layers::fan_out(&log, layers::panel(&self.apps[a.app], a.seed), self.width)
        });
        let sync = t.span("trace.sync_index", |_| layers::sync_index(&log));
        let plan = t.span("trace.partition", |_| {
            layers::partition(sync, &log, self.width)
        });
        let sharded = t.span("hb.sharded", |_| layers::sharded_fasttrack(&plan));
        let slices = (0..plan.shards())
            .map(|s| plan.partition().slice(s).len())
            .collect();
        let sync_events = plan.sync().len();
        Ok(Detected {
            log,
            panel,
            sharded,
            slices,
            sync_events,
        })
    }

    fn probe(&self, i: usize, out: &Self::Out, t: &mut Tracer) {
        let Ok(d) = out else { return };
        let events = d.log.len() as f64;
        t.count("trace.events", events);
        let a = &self.artifacts[i];
        t.count("trace.bytes", a.bytes.len() as f64);
        t.count("trace.sync_events", d.sync_events as f64);

        // Each broadcast group reports its own wall time once.
        let groups: BTreeSet<(usize, u64)> = d.panel.iter().map(|r| (r.group, r.wall_ns)).collect();
        let fanout_ns = t.op_ns("replay.fanout");
        t.count(
            "fanout.group_ns",
            groups.iter().map(|g| g.1).sum::<u64>() as f64,
        );
        t.count("fanout.width_ns", (groups.len() as u64 * fanout_ns) as f64);

        let critical = d
            .sharded
            .shards
            .iter()
            .map(|s| s.wall_ns)
            .max()
            .unwrap_or(0);
        t.count("hb.sharded.critical_ns", critical as f64);
        let mean_slice = d.slices.iter().sum::<usize>() as f64 / d.slices.len().max(1) as f64;
        let max_slice = d.slices.iter().copied().max().unwrap_or(0) as f64;
        t.count(
            "hb.sharded.imbalance",
            if mean_slice > 0.0 {
                max_slice / mean_slice
            } else {
                1.0
            },
        );

        // Solo replays of single detectors over the decoded log.
        let w = &self.apps[a.app];
        let n = w.program.thread_count();
        let tsan = layers::tsan_consumer(w, a.seed);
        t.span("hb.tsan_replay", |_| layers::replay_solo(&d.log, tsan));
        t.span("hb.fasttrack", |_| layers::fasttrack_replay(&d.log, n));
        t.span("hb.vcref", |_| layers::vcref_replay(&d.log, n));
        t.span("hb.lockset", |_| layers::lockset_replay(&d.log, n));
    }

    fn check(&mut self, i: usize, out: &Self::Out) -> Vec<String> {
        let d = match out {
            Ok(d) => d,
            Err(e) => return vec![format!("decode failed: {e}")],
        };
        let app = self.artifacts[i].app;
        let w = &self.apps[app];
        let truth = self.planted[app].get_or_insert_with(|| live::planted(w));
        let mut failed = Vec::new();
        let member = |k: usize| &d.panel[k].consumer;
        let (PanelConsumer::Tsan(tsan), PanelConsumer::FastTrack(ft), PanelConsumer::VcRef(vc)) = (
            member(PANEL_FULL_TSAN),
            member(PANEL_FASTTRACK),
            member(PANEL_VCREF),
        ) else {
            return vec!["panel members out of order".to_string()];
        };
        if live::pairs(tsan.races()) != *truth {
            failed.push(format!(
                "full tsan races ({}) != planted manifest ({})",
                tsan.races().distinct_count(),
                truth.len()
            ));
        }
        if racy_addrs(ft.races()) != racy_addrs(vc.races()) {
            failed.push("fasttrack racy addresses != vcref racy addresses".to_string());
        }
        if d.sharded.races.reports() != ft.races().reports() {
            failed.push("sharded fasttrack races != panel fasttrack races".to_string());
        }
        failed
    }

    fn digest(&self, out: &Self::Out) -> u64 {
        let Ok(d) = out else { return 0 };
        let mut words = vec![d.log.len() as u64, d.sharded.checks];
        for r in &d.panel {
            words.push(r.consumer.fingerprint());
            if let PanelConsumer::Tsan(c) = &r.consumer {
                words.push(fnv1a(
                    format!("{:?}|{}", c.breakdown(), c.checked()).as_bytes(),
                ));
            }
        }
        words.push(fnv1a(format!("{:?}", d.sharded.races.reports()).as_bytes()));
        fnv1a_words(words)
    }

    fn events(&self, out: &Self::Out) -> u64 {
        out.as_ref().map_or(0, |d| d.log.len() as u64)
    }

    fn observe(&mut self, _: usize, _: &Self::Out) {}

    /// The ops run no engine, so the modeled metrics come from live runs
    /// of each recorded app at the same seed, outside the stopwatch.
    fn modeled(&mut self) -> Modeled {
        let apps = &self.apps;
        let seeds: Vec<u64> = live::sched_seeds(self.seed).collect();
        live::modeled_from(apps, |a, s, kind| {
            let cfg = layers::app_config(&apps[a], kind, seeds[s]);
            Some(Kept::from(&layers::detector_run(&apps[a].program, &cfg)))
        })
    }
}
