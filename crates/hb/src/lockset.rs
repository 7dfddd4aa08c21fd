//! An Eraser-style lockset detector (Savage et al., TOCS '97), kept as the
//! classic incomplete baseline the paper's related-work section contrasts
//! with happens-before detection: it ignores non-mutex synchronization
//! (signal/wait ordering), so it reports *false positives* that FastTrack
//! does not.

use std::collections::BTreeSet;
use std::fmt;

use txrace_sim::{Addr, AddrMap, Event, LockId, SiteId, ThreadId, TraceConsumer};

/// The Eraser per-variable state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarPhase {
    Virgin,
    Exclusive(ThreadId),
    Shared,
    SharedModified,
}

#[derive(Debug, Clone)]
struct VarState {
    phase: VarPhase,
    candidates: BTreeSet<LockId>,
    first_site: SiteId,
    reported: bool,
}

/// A lockset violation: the candidate lockset of `addr` became empty while
/// shared-modified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocksetReport {
    /// The variable.
    pub addr: Addr,
    /// Site of the access that emptied the lockset.
    pub site: SiteId,
    /// An earlier access site to the same variable.
    pub earlier_site: SiteId,
}

impl fmt::Display for LocksetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lockset violation on {} at {} (earlier access {})",
            self.addr, self.site, self.earlier_site
        )
    }
}

/// The lockset detector.
#[derive(Debug)]
pub struct Lockset {
    held: Vec<BTreeSet<LockId>>,
    /// Paged map `Addr -> dense index into `vars``, assigned on first
    /// touch. Unlike the HB detectors' all-zero fresh state, Eraser's
    /// state captures the *site of the first access*, so initialization
    /// must stay lazy — first-touch id assignment gives exactly that.
    var_ids: AddrMap,
    vars: Vec<VarState>,
    reports: Vec<LocksetReport>,
    checks: u64,
}

impl Lockset {
    /// Creates a detector for `threads` threads.
    pub fn new(threads: usize) -> Self {
        Lockset {
            held: vec![BTreeSet::new(); threads],
            var_ids: AddrMap::new(),
            vars: Vec::new(),
            reports: Vec::new(),
            checks: 0,
        }
    }

    /// Violations found so far.
    pub fn reports(&self) -> &[LocksetReport] {
        &self.reports
    }

    /// Number of accesses checked (reads plus writes).
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Tracks a mutex acquire.
    pub fn lock_acquire(&mut self, t: ThreadId, l: LockId) {
        self.held[t.index()].insert(l);
    }

    /// Tracks a mutex release.
    pub fn lock_release(&mut self, t: ThreadId, l: LockId) {
        self.held[t.index()].remove(&l);
    }

    /// Checks a read.
    pub fn read(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.access(t, site, addr, false);
    }

    /// Checks a write.
    pub fn write(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.access(t, site, addr, true);
    }

    fn access(&mut self, t: ThreadId, site: SiteId, addr: Addr, is_write: bool) {
        self.checks += 1;
        let held = &self.held[t.index()];
        let i = self.var_ids.resolve(addr) as usize;
        if i == self.vars.len() {
            self.vars.push(VarState {
                phase: VarPhase::Virgin,
                candidates: BTreeSet::new(),
                first_site: site,
                reported: false,
            });
        }
        let state = &mut self.vars[i];
        match state.phase {
            VarPhase::Virgin => {
                state.phase = VarPhase::Exclusive(t);
                state.candidates = held.clone();
            }
            VarPhase::Exclusive(owner) => {
                if owner == t {
                    // Still exclusive; refine candidates only once shared.
                } else {
                    state.candidates = state.candidates.intersection(held).copied().collect();
                    state.phase = if is_write {
                        VarPhase::SharedModified
                    } else {
                        VarPhase::Shared
                    };
                }
            }
            VarPhase::Shared => {
                state.candidates = state.candidates.intersection(held).copied().collect();
                if is_write {
                    state.phase = VarPhase::SharedModified;
                }
            }
            VarPhase::SharedModified => {
                state.candidates = state.candidates.intersection(held).copied().collect();
            }
        }
        if state.phase == VarPhase::SharedModified && state.candidates.is_empty() && !state.reported
        {
            state.reported = true;
            self.reports.push(LocksetReport {
                addr,
                site,
                earlier_site: state.first_site,
            });
        }
    }
}

/// Eraser as a pure trace consumer — the one place events map to
/// mutex operations. The mapping preserves its defining blindness: only
/// mutex events update the held sets — signal/wait, spawn/join,
/// barriers and channels are ignored, which is exactly where its false
/// positives come from.
impl TraceConsumer for Lockset {
    #[inline(always)]
    fn event(&mut self, _idx: u64, ev: Event<'_>) {
        match ev {
            Event::Read { t, site, addr } => self.read(t, site, addr),
            Event::Write { t, site, addr } => self.write(t, site, addr),
            Event::Acquire { t, l, .. } => self.lock_acquire(t, l),
            Event::Release { t, l, .. } => self.lock_release(t, l),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const X: Addr = Addr(0x900);
    const L: LockId = LockId(0);

    #[test]
    fn consistent_locking_is_clean() {
        let mut d = Lockset::new(2);
        for (t, s) in [(T0, 1u32), (T1, 2u32)] {
            d.lock_acquire(t, L);
            d.write(t, SiteId(s), X);
            d.lock_release(t, L);
        }
        assert!(d.reports().is_empty());
    }

    #[test]
    fn unlocked_shared_write_is_reported() {
        let mut d = Lockset::new(2);
        d.write(T0, SiteId(1), X);
        d.write(T1, SiteId(2), X);
        assert_eq!(d.reports().len(), 1);
        assert_eq!(d.reports()[0].addr, X);
    }

    #[test]
    fn exclusive_phase_never_reports() {
        let mut d = Lockset::new(2);
        for _ in 0..10 {
            d.write(T0, SiteId(1), X);
        }
        assert!(d.reports().is_empty());
    }

    #[test]
    fn read_sharing_without_writes_is_clean() {
        let mut d = Lockset::new(2);
        d.read(T0, SiteId(1), X);
        d.read(T1, SiteId(2), X);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn signal_wait_ordering_still_reported_false_positive() {
        // Eraser's hallmark incompleteness: no lock is held, but the
        // accesses are actually ordered by signal/wait (which Eraser cannot
        // see), so this is a FALSE positive a HB detector would not emit.
        let mut d = Lockset::new(2);
        d.write(T0, SiteId(1), X);
        // (signal/wait happens here in the real program)
        d.write(T1, SiteId(2), X);
        assert_eq!(d.reports().len(), 1);
    }

    #[test]
    fn reports_once_per_variable() {
        let mut d = Lockset::new(2);
        d.write(T0, SiteId(1), X);
        d.write(T1, SiteId(2), X);
        d.write(T0, SiteId(3), X);
        d.write(T1, SiteId(4), X);
        assert_eq!(d.reports().len(), 1);
    }

    #[test]
    fn partial_lock_discipline_detected() {
        let mut d = Lockset::new(2);
        d.lock_acquire(T0, L);
        d.write(T0, SiteId(1), X);
        d.lock_release(T0, L);
        d.write(T1, SiteId(2), X); // no lock held: candidates empty
        assert_eq!(d.reports().len(), 1);
    }
}
