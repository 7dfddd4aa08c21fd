//! The record/replay boundary: pure-observer detectors consume a stream
//! of schedule-visible events instead of holding [`Runtime`] hooks.
//!
//! A [`TraceConsumer`] sees exactly the events a pure observer would see
//! live — resolved access addresses, architecturally completed sync
//! operations, barrier releases with their arrival lists, and thread
//! terminations — each as one [`Event`] tagged with its global position
//! in the stream. It is decoupled from execution: the same consumer can
//! be driven by the [`Live`] adapter during an interpreter run, by
//! [`EventLog::replay`] over a recorded log, by [`fan_out`] alongside
//! other consumers, or by [`replay_indexed`] over one shard's slice of
//! the log, and observes the identical `(index, event)` sequence (or,
//! for a shard, the identical subsequence). That is the correctness
//! contract of the pipeline: because a pure observer never redirects
//! control or alters memory, recording is invisible, and a log recorded
//! once can stand in for any number of re-executions.
//!
//! The TxRace engine itself is *not* a pure observer (it rolls threads
//! back), so it stays a [`Runtime`] and is excluded from this boundary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::addr::Addr;
use crate::exec::{Directive, OpEvent, Runtime};
use crate::ids::{BarrierId, ChanId, CondId, LockId, SiteId, ThreadId};
use crate::ir::{Op, SyscallKind};
use crate::mem::Memory;
use crate::trace::{EventLog, SyncIndex, TraceEvent};

/// One schedule-visible event, decoded.
///
/// Fields follow one naming scheme: `t` is the executing thread and
/// `site` the static site of the operation; the remaining field is the
/// operation's operand — a resolved address, a lock/condition/channel/
/// barrier id, a `child` thread, a unit count, or a syscall kind.
/// Exactly one event fires per completed operation, plus one
/// [`Event::BarrierRelease`] per barrier release, after the arrivals
/// that triggered it.
#[allow(missing_docs)] // fields are documented above
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event<'a> {
    /// A shared read.
    Read {
        t: ThreadId,
        site: SiteId,
        addr: Addr,
    },
    /// A shared write.
    Write {
        t: ThreadId,
        site: SiteId,
        addr: Addr,
    },
    /// An atomic read-modify-write. Atomics are never data races under
    /// the C11 model; most detectors ignore these.
    Rmw {
        t: ThreadId,
        site: SiteId,
        addr: Addr,
    },
    /// Mutex `l` acquired.
    Acquire {
        t: ThreadId,
        site: SiteId,
        l: LockId,
    },
    /// Mutex `l` released.
    Release {
        t: ThreadId,
        site: SiteId,
        l: LockId,
    },
    /// Semaphore `c` posted.
    Signal {
        t: ThreadId,
        site: SiteId,
        c: CondId,
    },
    /// A wait on `c` satisfied.
    Wait {
        t: ThreadId,
        site: SiteId,
        c: CondId,
    },
    /// Thread `child` spawned by `t`.
    Spawn {
        t: ThreadId,
        site: SiteId,
        child: ThreadId,
    },
    /// A join on `child` satisfied.
    Join {
        t: ThreadId,
        site: SiteId,
        child: ThreadId,
    },
    /// Thread `t` arrived at barrier `b` (it may block here; the release
    /// is a separate event).
    BarrierArrive {
        t: ThreadId,
        site: SiteId,
        b: BarrierId,
    },
    /// Barrier `b` released all `arrivals` (thread and arrival site, in
    /// arrival order).
    BarrierRelease {
        b: BarrierId,
        arrivals: &'a [(ThreadId, SiteId)],
    },
    /// `units` cycles of thread-local computation.
    Compute {
        t: ThreadId,
        site: SiteId,
        units: u32,
    },
    /// A system call.
    Syscall {
        t: ThreadId,
        site: SiteId,
        kind: SyscallKind,
    },
    /// A send into channel `ch` completed (a happens-before release
    /// toward the receive that takes the message).
    ChanSend {
        t: ThreadId,
        site: SiteId,
        ch: ChanId,
    },
    /// A receive from channel `ch` completed (a happens-before acquire
    /// from the sends that fed the channel).
    ChanRecv {
        t: ThreadId,
        site: SiteId,
        ch: ChanId,
    },
    /// Thread `t` finished its program.
    ThreadDone { t: ThreadId },
}

/// A pure observer of one execution's schedule-visible event stream.
///
/// `event` is called once per event, in execution order, with the
/// event's global position `idx` in the stream (0-based; the same
/// position whether the stream is live or replayed). Consumers match on
/// the events they track and ignore the rest. The detectors mark `event`
/// `#[inline(always)]`: the replay dispatch calls it once per event kind
/// with an event of that kind, so inlined, its match folds away.
pub trait TraceConsumer {
    /// Observes event `ev` at stream position `idx`.
    fn event(&mut self, idx: u64, ev: Event<'_>);
}

/// Boxed consumers forward every event, so heterogeneous detector sets
/// (`Vec<Box<dyn TraceConsumer + Send>>`) can ride one [`fan_out`] pass.
impl<C: TraceConsumer + ?Sized> TraceConsumer for Box<C> {
    fn event(&mut self, idx: u64, ev: Event<'_>) {
        (**self).event(idx, ev);
    }
}

/// A slice of consumers broadcasts: every event goes to each consumer in
/// slice order ([`EventLog::replay`] on the slice).
impl<C: TraceConsumer> TraceConsumer for [C] {
    #[inline(always)]
    fn event(&mut self, idx: u64, ev: Event<'_>) {
        for c in self {
            c.event(idx, ev);
        }
    }
}

/// Drives `consumer` through one shard's merged view of a log: its
/// access slice interleaved with the shared sync stream, in global
/// event-index order — the two-cursor merge of the indexed sharding
/// path.
///
/// Both inputs are index-sorted by construction and an event is either
/// an access or a sync event (indices are disjoint), so a strict `<`
/// comparison fully determines the merge. The dispatched sequence is
/// exactly the subsequence of the source log's [`EventLog::replay`]
/// stream that this shard acts on, with the same indices and in the
/// same order — which is why detectors built on this path produce
/// byte-identical results while touching O(slice + sync) events instead
/// of O(log).
pub fn replay_indexed<C: TraceConsumer + ?Sized>(
    sync: &SyncIndex,
    accesses: &[(u64, TraceEvent)],
    consumer: &mut C,
) {
    let table = sync.table();
    let mut syncs = sync.events().iter().peekable();
    for (idx, e) in accesses {
        while let Some((s_idx, s)) = syncs.next_if(|(s_idx, _)| s_idx < idx) {
            table.dispatch(*s_idx, s, consumer);
        }
        table.dispatch(*idx, e, consumer);
    }
    for (s_idx, s) in syncs {
        table.dispatch(*s_idx, s, consumer);
    }
}

/// Maps `job` over `inputs` on scoped threads and returns the results in
/// input order — the one runner under [`fan_out`], the sharded
/// detectors and the table/figure binaries' cell grids.
///
/// Runs on `min(inputs, width, available_parallelism)` threads, each
/// claiming the next unclaimed input until none are left. With one
/// thread (a single input, `width <= 1`, or a one-core host) the inputs
/// run in order on the calling thread, so extra jobs never time-slice
/// one core. `job` receives each input's position. Pass `usize::MAX`
/// as `width` for one thread per core.
pub fn par_map<I: Send, O: Send>(
    inputs: impl IntoIterator<Item = I>,
    width: usize,
    job: impl Fn(usize, I) -> O + Sync,
) -> Vec<O> {
    let inputs: Vec<I> = inputs.into_iter().collect();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = width.min(hw).min(inputs.len());
    if threads <= 1 {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(i, x)| job(i, x))
            .collect();
    }
    let jobs: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let slots: Vec<Mutex<Option<O>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    // `Relaxed` suffices: the counter only hands out indices, and each
    // job's data moves through its own mutex.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = jobs.get(i) else { break };
                let input = slot.lock().expect("job poisoned").take();
                let out = job(i, input.expect("each job is claimed once"));
                *slots[i].lock().expect("slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("every job ran")
        })
        .collect()
}

/// One consumer's slice of a [`fan_out`] pass: the consumer itself plus
/// the observability the parallel harnesses report (which broadcast
/// group carried it, how long that group's pass took, and how many
/// events it was driven through).
#[derive(Debug)]
pub struct FanOutReport<C> {
    /// The consumer, after consuming the whole log.
    pub consumer: C,
    /// The broadcast group (worker thread) that carried this consumer.
    pub group: usize,
    /// Wall-clock nanoseconds of the broadcast pass that carried this
    /// consumer. Consumers in one group share a single pass over the
    /// log, so they report the same wall time.
    pub wall_ns: u64,
    /// Events the consumer was driven through (the log length).
    pub events: u64,
}

/// Replays one shared [`EventLog`] into every consumer — the
/// multi-consumer fan-out of the parallel replay engine.
///
/// Consumers are split round-robin into at most `width` groups; each
/// group rides **one** broadcast pass over the log ([`EventLog::replay`]
/// on the group's slice: every event decoded once, dispatched to the
/// whole group), and groups run concurrently through [`par_map`].
/// The group count is additionally capped at the machine's available
/// parallelism — an extra group means an extra walk of the log, which
/// costs memory bandwidth without buying any concurrency once every
/// core already has a walk.
///
/// Each consumer observes the *identical* sequence [`EventLog::replay`]
/// produces, so results are byte-identical to a serial loop over the
/// consumers regardless of `width`, the group assignment, or the core
/// count; the log is read-only and shared, so nothing is re-read or
/// re-decoded per consumer within a group. Results come back in input
/// order regardless of completion order.
///
/// ```
/// use txrace_sim::replay::{fan_out, Event, TraceConsumer};
/// use txrace_sim::{record_run, ProgramBuilder, RoundRobin, StepLimit};
///
/// #[derive(Default)]
/// struct CountWrites(u64);
/// impl TraceConsumer for CountWrites {
///     fn event(&mut self, _idx: u64, ev: Event<'_>) {
///         self.0 += u64::from(matches!(ev, Event::Write { .. }));
///     }
/// }
///
/// let mut b = ProgramBuilder::new(1);
/// let x = b.var("x");
/// b.thread(0).write(x, 1).write(x, 2);
/// let p = b.build();
/// let log = record_run(&p, &mut RoundRobin::new(), StepLimit::default());
/// let counters = vec![CountWrites::default(), CountWrites::default()];
/// for r in fan_out(&log, counters, 2) {
///     assert_eq!(r.consumer.0, 2);
/// }
/// ```
pub fn fan_out<C: TraceConsumer + Send>(
    log: &EventLog,
    consumers: Vec<C>,
    width: usize,
) -> Vec<FanOutReport<C>> {
    let n = consumers.len();
    let hw = std::thread::available_parallelism().map_or(1, |v| v.get());
    let groups = width.clamp(1, hw).min(n);
    if groups == 0 {
        return Vec::new();
    }
    // Round-robin assignment: consumer `i` rides group `i % groups` at
    // position `i / groups`, which is how results return to input order.
    let mut buckets: Vec<Vec<C>> = (0..groups).map(|_| Vec::new()).collect();
    for (i, c) in consumers.into_iter().enumerate() {
        buckets[i % groups].push(c);
    }
    let events = log.len() as u64;
    let mut finished = par_map(buckets, groups, |group, mut cs| {
        let t0 = Instant::now();
        log.replay(cs.as_mut_slice());
        let wall_ns = t0.elapsed().as_nanos() as u64;
        cs.into_iter().map(move |consumer| FanOutReport {
            consumer,
            group,
            wall_ns,
            events,
        })
    });
    (0..n)
        .map(|i| finished[i % groups].next().expect("group holds its share"))
        .collect()
}

/// Adapts a [`TraceConsumer`] to the live [`Runtime`] interface: memory
/// effects are applied directly (like [`crate::DirectRuntime`]) and every
/// schedule-visible event is forwarded to the consumer as it happens,
/// numbered in the order it fires — the same index a replay of the
/// recorded log gives it.
///
/// `Live<C>` never rolls back and never alters state beyond the direct
/// memory effects the program itself demands, so wrapping a consumer in
/// it is schedule-invisible: the interpreter takes the same interleaving
/// it would with any other pure observer. This is what makes a log
/// recorded by `Live<EventLogBuilder>` byte-equivalent to what a live
/// `Live<SomeDetector>` run observes under the same seed.
///
/// ```
/// use txrace_sim::replay::{Event, Live, TraceConsumer};
/// use txrace_sim::{Machine, ProgramBuilder, RoundRobin};
///
/// #[derive(Default)]
/// struct CountWrites(u64);
/// impl TraceConsumer for CountWrites {
///     fn event(&mut self, _idx: u64, ev: Event<'_>) {
///         self.0 += u64::from(matches!(ev, Event::Write { .. }));
///     }
/// }
///
/// let mut b = ProgramBuilder::new(1);
/// let x = b.var("x");
/// b.thread(0).write(x, 1).read(x).write(x, 2);
/// let p = b.build();
/// let mut rt = Live::new(CountWrites::default());
/// Machine::new(&p).run(&mut rt, &mut RoundRobin::new());
/// assert_eq!(rt.consumer().0, 2);
/// ```
#[derive(Debug)]
pub struct Live<C> {
    consumer: C,
    /// Index of the next event.
    next: u64,
}

impl<C: TraceConsumer> Live<C> {
    /// Wraps `consumer` for a live run.
    pub fn new(consumer: C) -> Self {
        Live { consumer, next: 0 }
    }

    /// The wrapped consumer.
    pub fn consumer(&self) -> &C {
        &self.consumer
    }

    /// Mutable access to the wrapped consumer.
    pub fn consumer_mut(&mut self) -> &mut C {
        &mut self.consumer
    }

    /// Unwraps the consumer after the run.
    pub fn into_inner(self) -> C {
        self.consumer
    }

    fn emit(&mut self, ev: Event<'_>) {
        self.consumer.event(self.next, ev);
        self.next += 1;
    }
}

impl<C: TraceConsumer> Runtime for Live<C> {
    fn before_op(&mut self, _mem: &mut Memory, ev: &OpEvent<'_>) -> Directive {
        // Accesses and sync ops are reported from their own hooks (where
        // the resolved address / completion is known); barrier arrivals
        // are reported here because the release hook fires only once for
        // the whole group. Instrumentation markers are not events.
        let (t, site) = (ev.thread, ev.site);
        match ev.op {
            Op::Compute(units) => self.emit(Event::Compute { t, site, units }),
            Op::Syscall(kind) => self.emit(Event::Syscall { t, site, kind }),
            Op::Barrier(b) => self.emit(Event::BarrierArrive { t, site, b }),
            _ => {}
        }
        Directive::Continue
    }

    fn read(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr) -> u64 {
        let (t, site) = (ev.thread, ev.site);
        self.emit(Event::Read { t, site, addr });
        mem.load(addr)
    }

    fn write(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr, val: u64) {
        let (t, site) = (ev.thread, ev.site);
        self.emit(Event::Write { t, site, addr });
        mem.store(addr, val);
    }

    fn rmw(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr, delta: u64) -> u64 {
        let (t, site) = (ev.thread, ev.site);
        self.emit(Event::Rmw { t, site, addr });
        let old = mem.load(addr);
        mem.store(addr, old.wrapping_add(delta));
        old
    }

    fn after_sync(&mut self, _mem: &mut Memory, ev: &OpEvent<'_>) {
        let (t, site) = (ev.thread, ev.site);
        let sync = match ev.op {
            Op::Lock(l) => Event::Acquire { t, site, l },
            Op::Unlock(l) => Event::Release { t, site, l },
            Op::Signal(c) => Event::Signal { t, site, c },
            Op::Wait(c) => Event::Wait { t, site, c },
            Op::Spawn(child) => Event::Spawn { t, site, child },
            Op::Join(child) => Event::Join { t, site, child },
            Op::ChanSend(ch) => Event::ChanSend { t, site, ch },
            Op::ChanRecv(ch) => Event::ChanRecv { t, site, ch },
            _ => return,
        };
        self.emit(sync);
    }

    fn after_barrier(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
        self.emit(Event::BarrierRelease { b, arrivals });
    }

    fn on_thread_done(&mut self, t: ThreadId) {
        self.emit(Event::ThreadDone { t });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::exec::StepLimit;
    use crate::ir::ProgramBuilder;
    use crate::sched::RoundRobin;
    use crate::trace::{record_run, AccessPartition, TraceEventKind as K};
    use crate::{Machine, RunStatus};

    /// Records the `(idx, event)` sequence, with events rendered by
    /// `Debug` (which spells out barrier arrival lists), for order and
    /// equality assertions.
    #[derive(Debug, Default, PartialEq)]
    pub(crate) struct Script(pub Vec<(u64, String)>);

    impl TraceConsumer for Script {
        fn event(&mut self, idx: u64, ev: Event<'_>) {
            self.0.push((idx, format!("{ev:?}")));
        }
    }

    impl Script {
        /// Positions of the events whose rendering starts with `kind`.
        fn positions(&self, kind: &str) -> Vec<usize> {
            let hits = self
                .0
                .iter()
                .enumerate()
                .filter(|(_, (_, e))| e.starts_with(kind));
            hits.map(|(i, _)| i).collect()
        }
    }

    #[test]
    fn live_adapter_reports_events_in_execution_order() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        let bar = b.barrier_id("bar");
        for t in 0..2 {
            b.thread(t).lock(l).rmw(x, 1).unlock(l).barrier(bar);
        }
        let p = b.build();
        let mut rt = Live::new(Script::default());
        let mut m = Machine::new(&p);
        let r = m.run(&mut rt, &mut RoundRobin::new());
        assert_eq!(r.status, RunStatus::Done);
        let script = rt.into_inner();
        // Live numbers events consecutively from 0.
        assert!(script
            .0
            .iter()
            .enumerate()
            .all(|(i, (idx, _))| *idx == i as u64));
        // t0 runs its whole critical section while t1 blocks on the lock
        // (blocked attempts produce no events), then both arrive at the
        // barrier and one release fires, after both arrivals.
        let arrivals = script.positions("BarrierArrive");
        let release = script.positions("BarrierRelease");
        assert_eq!(arrivals.len(), 2);
        assert_eq!(release.len(), 1);
        assert_eq!(script.positions("Acquire").len(), 2);
        assert_eq!(script.positions("ThreadDone").len(), 2);
        assert!(release[0] > arrivals[1]);
    }

    fn locked_barrier_log(seed: u64) -> EventLog {
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        let l = b.lock_id("l");
        let bar = b.barrier_id("bar");
        for t in 0..3 {
            b.thread(t)
                .write(x, t as u64)
                .lock(l)
                .rmw(x, 1)
                .unlock(l)
                .barrier(bar)
                .read(x);
        }
        let p = b.build();
        record_run(
            &p,
            &mut crate::sched::RandomSched::new(seed),
            StepLimit::default(),
        )
    }

    #[test]
    fn fan_out_matches_serial_replay_for_every_width() {
        let log = locked_barrier_log(11);
        let mut serial = Script::default();
        log.replay(&mut serial);
        for width in [1, 2, 4, 8] {
            let consumers: Vec<Script> = (0..5).map(|_| Script::default()).collect();
            let reports = fan_out(&log, consumers, width);
            assert_eq!(reports.len(), 5);
            for r in &reports {
                assert_eq!(r.consumer, serial, "width={width}");
                assert_eq!(r.events, log.len() as u64);
            }
        }
    }

    #[test]
    fn fan_out_accepts_boxed_heterogeneous_consumers() {
        #[derive(Default)]
        struct CountReads(u64);
        impl TraceConsumer for CountReads {
            fn event(&mut self, _: u64, ev: Event<'_>) {
                self.0 += u64::from(matches!(ev, Event::Read { .. }));
            }
        }

        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).read(x).read(x).write(x, 1);
        let p = b.build();
        let log = record_run(&p, &mut RoundRobin::new(), StepLimit::default());

        let consumers: Vec<Box<dyn TraceConsumer + Send>> =
            vec![Box::new(CountReads::default()), Box::new(Script::default())];
        let out = fan_out(&log, consumers, 2);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn slice_replay_matches_replay_per_consumer() {
        let log = locked_barrier_log(5);
        let mut want = Script::default();
        log.replay(&mut want);
        let mut many: Vec<Script> = (0..3).map(|_| Script::default()).collect();
        log.replay(many.as_mut_slice());
        for m in &many {
            assert_eq!(m, &want, "broadcast must equal per-consumer replay");
        }
    }

    #[test]
    fn fan_out_of_nothing_is_empty() {
        let log = locked_barrier_log(1);
        let none: Vec<Script> = vec![];
        assert!(fan_out(&log, none, 4).is_empty());
    }

    #[test]
    fn par_map_returns_results_in_input_order() {
        for width in [0, 1, 2, 3, 8] {
            let out = par_map(0..10u64, width, |i, x| (i, x * x));
            let want: Vec<(usize, u64)> = (0..10).map(|i| (i as usize, i * i)).collect();
            assert_eq!(out, want, "width={width}");
        }
    }

    #[test]
    fn par_map_serial_and_parallel_agree() {
        let items: Vec<u64> = (0..97).collect();
        let f = |i: usize, x: u64| -> u64 { x.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64) };
        let serial = par_map(items.iter().copied(), 1, f);
        for width in [2, 3, 8, 64] {
            assert_eq!(
                serial,
                par_map(items.iter().copied(), width, f),
                "width={width}"
            );
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton_inputs() {
        assert!(par_map(Vec::<u8>::new(), 4, |_, x| x).is_empty());
        assert_eq!(par_map([7u32], 8, |_, x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_keeps_input_order_when_completion_order_scrambles() {
        let out = par_map(0..200u64, 16, |i, x| {
            // Vary per-job latency so jobs finish out of order.
            std::thread::sleep(std::time::Duration::from_micros(x % 7));
            i * 2
        });
        assert_eq!(out, (0..200).map(|i| i * 2).collect::<Vec<_>>());
    }

    /// A 3-thread log with locks, a barrier, channels, and enough
    /// distinct addresses that a partition spreads across shards.
    fn indexed_fixture() -> EventLog {
        let mut b = ProgramBuilder::new(3);
        let vars: Vec<_> = (0..6).map(|i| b.var(&format!("v{i}"))).collect();
        let l = b.lock_id("l");
        let bar = b.barrier_id("bar");
        let ch = b.chan_id("ch", 3);
        for t in 0..3 {
            let mut tb = b.thread(t);
            for &v in &vars {
                tb.write(v, t as u64 + 1);
            }
            tb.send(ch)
                .lock(l)
                .rmw(vars[0], 1)
                .unlock(l)
                .barrier(bar)
                .recv(ch);
            for &v in &vars {
                tb.read(v);
            }
        }
        let p = b.build();
        let mut sched = crate::sched::RandomSched::new(23);
        record_run(&p, &mut sched, StepLimit::default())
    }

    #[test]
    fn replay_indexed_merges_slice_and_sync_in_global_order() {
        let log = indexed_fixture();
        let sync = SyncIndex::of(&log);
        let route = |a: Addr, n: usize| (a.0 as usize / 8) % n;
        let mut serial = Script::default();
        log.replay(&mut serial);
        for shards in [1usize, 2, 4] {
            let part = AccessPartition::of(&log, shards, route);
            for shard in 0..shards {
                let mut got = Script::default();
                replay_indexed(&sync, part.slice(shard), &mut got);
                // Expected: the serial sequence, restricted to this
                // shard's accesses plus all sync events.
                let keep = |idx: u64| {
                    let e = log.events()[idx as usize];
                    match e.kind {
                        K::Read | K::Write => route(Addr(e.arg), shards) == shard,
                        K::Rmw | K::BarrierArrive | K::Compute | K::Syscall | K::ThreadDone => {
                            false
                        }
                        _ => true,
                    }
                };
                let want: Vec<_> = serial.0.iter().filter(|(i, _)| keep(*i)).cloned().collect();
                assert_eq!(got.0, want, "shards={shards} shard={shard}");
            }
        }
    }

    #[test]
    fn live_adapter_applies_direct_memory_effects() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).write(x, 7).rmw(x, 3);
        let p = b.build();
        let mut rt = Live::new(Script::default());
        let mut m = Machine::new(&p);
        m.run(&mut rt, &mut RoundRobin::new());
        assert_eq!(m.memory().load(x), 10);
    }
}
