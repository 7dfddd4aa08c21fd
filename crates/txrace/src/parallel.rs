//! Heterogeneous detector panels for parallel replay: one enum wrapping
//! every pure-observer detector in the workspace, so a mixed set
//! (FastTrack + vcref + lockset + the TSan/lockset baselines) can ride a
//! single [`txrace_sim::fan_out`] pass over one [`txrace_sim::EventLog`]
//! and still be recovered as concrete detectors afterwards.
//!
//! `Vec<Box<dyn TraceConsumer + Send>>` also works with `fan_out`, but
//! type erasure loses the results; [`PanelConsumer`] keeps them.
//!
//! The detectors that shard by address have their own runners
//! ([`txrace_hb::ShardedFastTrack`], [`txrace_hb::ShardedLockset`]),
//! which share one [`txrace_hb::ShardPlan`] per log. The stream-order
//! detectors (TSan with cycle accounting, vcref) stay on the fan-out
//! path: they are not address-decomposable, so a reduced per-shard
//! stream would change what they measure.

use txrace_hb::{FastTrack, VectorClockDetector};
use txrace_sim::{Event, TraceConsumer};

use crate::baselines::{LocksetConsumer, TsanConsumer};

/// One member of a heterogeneous detector panel.
///
/// Every variant is a pure observer, so replaying a panel over a log
/// produces exactly what each detector would have produced serially.
///
/// Variant sizes differ (the cost-accounting baselines carry more state
/// than raw FastTrack), but a panel holds a handful of members while
/// every event dispatches through the enum — boxing the large variants
/// would trade a few hundred stack bytes for a pointer chase on the
/// per-event hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum PanelConsumer {
    /// The TSan baseline (full or sampling), with cycle accounting.
    Tsan(TsanConsumer),
    /// The Eraser lockset baseline, with cycle accounting.
    Lockset(LocksetConsumer),
    /// Raw FastTrack (no cost model).
    FastTrack(FastTrack),
    /// The vector-clock reference detector.
    VcRef(VectorClockDetector),
}

impl PanelConsumer {
    /// A TSan panel member configured from the unified knob surface:
    /// `knobs.sampling` selects between the full and sampling baselines
    /// exactly as it does for [`crate::Detector`] runs, so a panel
    /// sweep and a detector sweep driven by the same [`crate::Knobs`] measure
    /// the same configuration.
    pub fn tsan_from_knobs(
        threads: usize,
        cost: crate::cost::CostModel,
        shadow_factor: f64,
        shadow: txrace_hb::ShadowMode,
        knobs: &crate::control::Knobs,
        seed: u64,
    ) -> Self {
        PanelConsumer::Tsan(TsanConsumer::from_knobs(
            threads,
            cost,
            shadow_factor,
            shadow,
            knobs,
            seed,
        ))
    }

    /// Short stable name for JSON/report rows.
    pub fn kind_name(&self) -> &'static str {
        match self {
            PanelConsumer::Tsan(_) => "tsan",
            PanelConsumer::Lockset(_) => "lockset",
            PanelConsumer::FastTrack(_) => "fasttrack",
            PanelConsumer::VcRef(_) => "vcref",
        }
    }

    /// Number of distinct findings (static race pairs, or lockset
    /// violations for the lockset variants).
    pub fn finding_count(&self) -> usize {
        match self {
            PanelConsumer::Tsan(c) => c.races().distinct_count(),
            PanelConsumer::Lockset(c) => c.reports().len(),
            PanelConsumer::FastTrack(c) => c.races().distinct_count(),
            PanelConsumer::VcRef(c) => c.races().distinct_count(),
        }
    }

    /// FNV-1a fingerprint of the full ordered report list — byte-level
    /// identity check between serial and parallel passes (two report
    /// lists fingerprint equal iff their debug serializations match,
    /// order included).
    pub fn fingerprint(&self) -> u64 {
        let dump = match self {
            PanelConsumer::Tsan(c) => format!("{:?}", c.races().reports()),
            PanelConsumer::Lockset(c) => format!("{:?}", c.reports()),
            PanelConsumer::FastTrack(c) => format!("{:?}", c.races().reports()),
            PanelConsumer::VcRef(c) => format!("{:?}", c.races().reports()),
        };
        fnv1a(dump.as_bytes())
    }

    /// The inner [`TsanConsumer`], if this is the TSan variant.
    pub fn into_tsan(self) -> Option<TsanConsumer> {
        match self {
            PanelConsumer::Tsan(c) => Some(c),
            _ => None,
        }
    }

    /// The inner [`LocksetConsumer`], if this is the lockset variant.
    pub fn into_lockset(self) -> Option<LocksetConsumer> {
        match self {
            PanelConsumer::Lockset(c) => Some(c),
            _ => None,
        }
    }

    /// The inner [`FastTrack`], if this is the raw FastTrack variant.
    pub fn into_fasttrack(self) -> Option<FastTrack> {
        match self {
            PanelConsumer::FastTrack(c) => Some(c),
            _ => None,
        }
    }

    /// The inner [`VectorClockDetector`], if this is the vcref variant.
    pub fn into_vcref(self) -> Option<VectorClockDetector> {
        match self {
            PanelConsumer::VcRef(c) => Some(c),
            _ => None,
        }
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl TraceConsumer for PanelConsumer {
    #[inline(always)]
    fn event(&mut self, idx: u64, ev: Event<'_>) {
        match self {
            PanelConsumer::Tsan(c) => c.event(idx, ev),
            PanelConsumer::Lockset(c) => c.event(idx, ev),
            PanelConsumer::FastTrack(c) => c.event(idx, ev),
            PanelConsumer::VcRef(c) => c.event(idx, ev),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_hb::{Lockset, ShadowMode};
    use txrace_sim::{fan_out, record_run, FairSched, ProgramBuilder, StepLimit};

    fn racy_log() -> (txrace_sim::EventLog, usize) {
        let n = 3;
        let mut b = ProgramBuilder::new(n);
        let x = b.var("x");
        let y = b.var("y");
        let l = b.lock_id("l");
        for t in 0..n {
            b.thread(t)
                .write(x, t as u64 + 1)
                .lock(l)
                .rmw(y, 1)
                .unlock(l)
                .read(x);
        }
        let p = b.build();
        let mut sched = FairSched::new(3, 0.1);
        (record_run(&p, &mut sched, StepLimit::default()), n)
    }

    #[test]
    fn panel_fan_out_matches_serial_per_detector() {
        let (log, n) = racy_log();

        let mut serial_ft = FastTrack::new(n, ShadowMode::Exact);
        log.replay(&mut serial_ft);
        let mut serial_vc = VectorClockDetector::new(n);
        log.replay(&mut serial_vc);
        let mut serial_ls = Lockset::new(n);
        log.replay(&mut serial_ls);

        let panel = vec![
            PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact)),
            PanelConsumer::VcRef(VectorClockDetector::new(n)),
            PanelConsumer::Lockset(LocksetConsumer::new(n, crate::cost::CostModel::default())),
        ];
        let reports = fan_out(&log, panel, 3);
        let ft = match &reports[0].consumer {
            PanelConsumer::FastTrack(c) => c,
            other => panic!("order must be preserved, got {}", other.kind_name()),
        };
        assert_eq!(ft.races().reports(), serial_ft.races().reports());
        let vc = match &reports[1].consumer {
            PanelConsumer::VcRef(c) => c,
            other => panic!("order must be preserved, got {}", other.kind_name()),
        };
        assert_eq!(vc.races().reports(), serial_vc.races().reports());
        let ls = match &reports[2].consumer {
            PanelConsumer::Lockset(c) => c.reports(),
            other => panic!("order must be preserved, got {}", other.kind_name()),
        };
        assert_eq!(ls, serial_ls.reports());
    }

    #[test]
    fn tsan_from_knobs_matches_direct_construction() {
        use crate::control::Knobs;
        use crate::cost::CostModel;

        let (log, n) = racy_log();
        // Full (sampling: None) and sampling (Some(rate)) knob configs
        // must reproduce the directly-constructed baselines replay for
        // replay.
        for knobs in [Knobs::default(), Knobs::default().with_sampling(0.5)] {
            let mut via_knobs = PanelConsumer::tsan_from_knobs(
                n,
                CostModel::default(),
                1.0,
                ShadowMode::Exact,
                &knobs,
                7,
            );
            let mut direct = PanelConsumer::Tsan(TsanConsumer::from_knobs(
                n,
                CostModel::default(),
                1.0,
                ShadowMode::Exact,
                &knobs,
                7,
            ));
            log.replay(&mut via_knobs);
            log.replay(&mut direct);
            assert_eq!(via_knobs.fingerprint(), direct.fingerprint());
        }
    }

    #[test]
    fn fingerprints_detect_report_differences() {
        let (log, n) = racy_log();
        let mut a = PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact));
        log.replay(&mut a);
        let mut b = PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact));
        log.replay(&mut b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.finding_count() > 0);
        let empty = PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact));
        assert_ne!(a.fingerprint(), empty.fingerprint());
        assert!(a.into_fasttrack().is_some());
    }
}
