//! Execution tracing: the replayable [`EventLog`] that the record/replay
//! pipeline is built on, and its wire format.
//!
//! An [`EventLog`] is recorded in one interpreter pass (see
//! [`record_run`]) and can then be replayed into any number of
//! [`TraceConsumer`]s — each replay observes the *identical*
//! `(index, event)` sequence a live pure observer would have seen under
//! the same seed, so detection results are bit-identical between the
//! two paths. Logs are compact: one 24-byte [`TraceEvent`] per
//! schedule-visible event, all identities dense `u32` ids, barrier
//! arrival lists stored once in a side table.
//!
//! This module owns the whole wire format: `ReleaseTable::encode` turns
//! an [`Event`] into its stored form, and `ReleaseTable::dispatch` is
//! the one place a stored event becomes an [`Event`] again. Every replay
//! driver — [`EventLog::replay`] (one consumer, or a slice of them) and
//! the shard merge [`crate::replay::replay_indexed`] — goes through it.

use crate::addr::Addr;
use crate::exec::{RunResult, RunStatus, StepLimit};
use crate::ids::{BarrierId, ChanId, CondId, LockId, SiteId, ThreadId};
use crate::ir::{Op, Program, SyscallKind};
use crate::mem::Memory;
use crate::replay::{Event, Live, TraceConsumer};
use crate::sched::Scheduler;

/// Classifies one [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceEventKind {
    /// Shared read; `arg` is the resolved address.
    Read,
    /// Shared write; `arg` is the resolved address.
    Write,
    /// Atomic read-modify-write; `arg` is the resolved address.
    Rmw,
    /// Mutex acquired; `arg` is the lock id.
    Acquire,
    /// Mutex released; `arg` is the lock id.
    Release,
    /// Semaphore posted; `arg` is the condition id.
    Signal,
    /// Wait satisfied; `arg` is the condition id.
    Wait,
    /// Thread spawned; `arg` is the child thread id.
    Spawn,
    /// Join satisfied; `arg` is the child thread id.
    Join,
    /// Barrier arrival; `arg` is the barrier id.
    BarrierArrive,
    /// Barrier release; `arg` indexes the log's arrival side table.
    BarrierRelease,
    /// Thread finished; `thread` is the finishing thread.
    ThreadDone,
    /// Thread-local computation; `arg` is the unit count.
    Compute,
    /// System call; `arg` encodes the [`SyscallKind`].
    Syscall,
    /// Channel send completed; `arg` is the channel id.
    ChanSend,
    /// Channel receive completed; `arg` is the channel id.
    ChanRecv,
}

/// One schedule-visible event in an [`EventLog`]: a compact (24-byte)
/// dense-id record whose `arg` field is interpreted per
/// [`TraceEventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceEventKind,
    /// Executing thread (unused for [`TraceEventKind::BarrierRelease`]).
    pub thread: ThreadId,
    /// Static site (unused for [`TraceEventKind::BarrierRelease`] and
    /// [`TraceEventKind::ThreadDone`]).
    pub site: SiteId,
    /// Kind-specific payload — see [`TraceEventKind`].
    pub arg: u64,
}

const SYSCALL_CODES: [SyscallKind; 4] = [
    SyscallKind::Io,
    SyscallKind::Alloc,
    SyscallKind::Free,
    SyscallKind::Other,
];

fn syscall_code(k: SyscallKind) -> u64 {
    SYSCALL_CODES
        .iter()
        .position(|&s| s == k)
        .expect("every SyscallKind has a code") as u64
}

/// Loop-weighted static operation counts of a program, by base-cost
/// class. Because architectural costs are uniform within each class, a
/// census is all a cost model needs to compute a program's baseline
/// cycles — which is how a replay prices a run without the [`Program`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCensus {
    /// Dynamic shared-memory accesses (reads, writes, RMWs, indexed).
    pub mem_accesses: u64,
    /// Total `Compute` units (already multiplied out).
    pub compute_units: u64,
    /// Dynamic synchronization operations (incl. barrier arrivals).
    pub sync_ops: u64,
    /// Dynamic system calls.
    pub syscalls: u64,
}

impl OpCensus {
    /// Counts `p`'s dynamic operations by class (instrumentation markers
    /// are not counted; they have no architectural cost).
    pub fn of(p: &Program) -> Self {
        OpCensus {
            mem_accesses: p.fold_dynamic(|op| u64::from(op.is_data_access())),
            compute_units: p.fold_dynamic(|op| match op {
                Op::Compute(n) => u64::from(*n),
                _ => 0,
            }),
            sync_ops: p.fold_dynamic(|op| u64::from(op.is_sync())),
            syscalls: p.fold_dynamic(|op| u64::from(matches!(op, Op::Syscall(_)))),
        }
    }
}

/// The barrier side table of a log: every release's barrier and arrival
/// list, stored once. A [`TraceEventKind::BarrierRelease`] event's `arg`
/// indexes it. Both [`EventLog`] and [`SyncIndex`] carry one, and this
/// type is also the codec between [`Event`] and [`TraceEvent`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ReleaseTable {
    arrivals: Vec<(ThreadId, SiteId)>,
    /// `(barrier, first arrival, arrival count)` per release.
    releases: Vec<(BarrierId, u32, u32)>,
}

impl ReleaseTable {
    fn len(&self) -> usize {
        self.releases.len()
    }

    /// The barrier and arrival list (thread and arrival site, in arrival
    /// order) of release `release_idx` — a release event's `arg`.
    fn get(&self, release_idx: u64) -> (BarrierId, &[(ThreadId, SiteId)]) {
        let (b, start, len) = self.releases[release_idx as usize];
        (b, &self.arrivals[start as usize..(start + len) as usize])
    }

    /// The stored form of `ev`: barrier arrival lists move into the
    /// table, everything else packs into one [`TraceEvent`]. The
    /// inverse of [`ReleaseTable::dispatch`].
    #[inline(always)]
    pub(crate) fn encode(&mut self, ev: Event<'_>) -> TraceEvent {
        use TraceEventKind as K;
        let (kind, thread, site, arg) = match ev {
            Event::Read { t, site, addr } => (K::Read, t, site, addr.0),
            Event::Write { t, site, addr } => (K::Write, t, site, addr.0),
            Event::Rmw { t, site, addr } => (K::Rmw, t, site, addr.0),
            Event::Acquire { t, site, l } => (K::Acquire, t, site, u64::from(l.0)),
            Event::Release { t, site, l } => (K::Release, t, site, u64::from(l.0)),
            Event::Signal { t, site, c } => (K::Signal, t, site, u64::from(c.0)),
            Event::Wait { t, site, c } => (K::Wait, t, site, u64::from(c.0)),
            Event::Spawn { t, site, child } => (K::Spawn, t, site, u64::from(child.0)),
            Event::Join { t, site, child } => (K::Join, t, site, u64::from(child.0)),
            Event::BarrierArrive { t, site, b } => (K::BarrierArrive, t, site, u64::from(b.0)),
            Event::BarrierRelease { b, arrivals } => {
                let idx = self.releases.len() as u64;
                let start = self.arrivals.len() as u32;
                self.releases.push((b, start, arrivals.len() as u32));
                self.arrivals.extend_from_slice(arrivals);
                (K::BarrierRelease, ThreadId(0), SiteId(0), idx)
            }
            Event::Compute { t, site, units } => (K::Compute, t, site, u64::from(units)),
            Event::Syscall { t, site, kind } => (K::Syscall, t, site, syscall_code(kind)),
            Event::ChanSend { t, site, ch } => (K::ChanSend, t, site, u64::from(ch.0)),
            Event::ChanRecv { t, site, ch } => (K::ChanRecv, t, site, u64::from(ch.0)),
            Event::ThreadDone { t } => (K::ThreadDone, t, SiteId(0), 0),
        };
        TraceEvent {
            kind,
            thread,
            site,
            arg,
        }
    }

    /// The one dispatch from stored form to [`Event`]: decodes `e`,
    /// event `idx` of its stream, whose release index (if any) points
    /// into this table, and hands the event to `consumer`.
    ///
    /// Each arm calls the consumer with an event of a known kind. With
    /// the consumer inlined, the compiler folds the consumer's own match
    /// on the event into this one — also for a slice of consumers, whose
    /// broadcast loop is then specialized per kind. [`EventLog::from_bytes`]
    /// validates every index this relies on, so dispatching a loaded log
    /// never panics.
    #[inline(always)]
    pub(crate) fn dispatch<C>(&self, idx: u64, e: &TraceEvent, consumer: &mut C)
    where
        C: TraceConsumer + ?Sized,
    {
        use TraceEventKind as K;
        // Id-carrying kinds store a `u32` id in `arg`; the casts are free.
        let (t, site, addr, id) = (e.thread, e.site, Addr(e.arg), e.arg as u32);
        let (l, c, child, ch, units) = (LockId(id), CondId(id), ThreadId(id), ChanId(id), id);
        match e.kind {
            K::Read => consumer.event(idx, Event::Read { t, site, addr }),
            K::Write => consumer.event(idx, Event::Write { t, site, addr }),
            K::Rmw => consumer.event(idx, Event::Rmw { t, site, addr }),
            K::Acquire => consumer.event(idx, Event::Acquire { t, site, l }),
            K::Release => consumer.event(idx, Event::Release { t, site, l }),
            K::Signal => consumer.event(idx, Event::Signal { t, site, c }),
            K::Wait => consumer.event(idx, Event::Wait { t, site, c }),
            K::Spawn => consumer.event(idx, Event::Spawn { t, site, child }),
            K::Join => consumer.event(idx, Event::Join { t, site, child }),
            K::BarrierArrive => {
                let b = BarrierId(id);
                consumer.event(idx, Event::BarrierArrive { t, site, b })
            }
            K::BarrierRelease => {
                let (b, arrivals) = self.get(e.arg);
                consumer.event(idx, Event::BarrierRelease { b, arrivals })
            }
            K::ThreadDone => consumer.event(idx, Event::ThreadDone { t }),
            K::Compute => consumer.event(idx, Event::Compute { t, site, units }),
            K::Syscall => {
                let kind = SYSCALL_CODES[e.arg as usize];
                consumer.event(idx, Event::Syscall { t, site, kind })
            }
            K::ChanSend => consumer.event(idx, Event::ChanSend { t, site, ch }),
            K::ChanRecv => consumer.event(idx, Event::ChanRecv { t, site, ch }),
        }
    }

    /// Checks that every release's arrival range lies inside the arrival
    /// table and names threads below `threads`.
    fn check_arrivals(&self, threads: usize) -> Result<(), String> {
        for (i, &(_, start, len)) in self.releases.iter().enumerate() {
            let end = u64::from(start) + u64::from(len);
            if end > self.arrivals.len() as u64 {
                return Err(format!("release {i}: arrivals {start}..{end} out of range"));
            }
        }
        match self.arrivals.iter().find(|(t, _)| t.index() >= threads) {
            Some((t, _)) => Err(format!("arrival by thread {} of {threads}", t.0)),
            None => Ok(()),
        }
    }
}

/// Checks the indices each event carries against a `threads`-thread log
/// with `releases` barrier releases: its thread, a spawn or join
/// target, a release index, and a syscall code.
fn check_events(events: &[TraceEvent], threads: usize, releases: usize) -> Result<(), String> {
    // One past the largest valid `arg` per kind; kinds whose `arg`
    // indexes nothing accept any `u64`. A table keeps the per-event
    // check free of branches on the kind.
    let mut arg_end = [u128::MAX; 16];
    arg_end[TraceEventKind::Spawn as usize] = threads as u128;
    arg_end[TraceEventKind::Join as usize] = threads as u128;
    arg_end[TraceEventKind::BarrierRelease as usize] = releases as u128;
    arg_end[TraceEventKind::Syscall as usize] = SYSCALL_CODES.len() as u128;
    let bad = |e: &TraceEvent| {
        (e.thread.index() >= threads) | (u128::from(e.arg) >= arg_end[e.kind as usize])
    };
    match events.iter().position(bad) {
        None => Ok(()),
        Some(i) => Err(format!(
            "event {i} out of range in a {threads}-thread log with {releases} releases: {:?}",
            events[i]
        )),
    }
}

/// A [`TraceConsumer`] that accumulates the event stream of one run;
/// [`record_run`] wraps it in [`Live`] and assembles the [`EventLog`].
#[derive(Debug, Default)]
pub struct EventLogBuilder {
    events: Vec<TraceEvent>,
    table: ReleaseTable,
}

impl EventLogBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceConsumer for EventLogBuilder {
    #[inline(always)]
    fn event(&mut self, _idx: u64, ev: Event<'_>) {
        let e = self.table.encode(ev);
        self.events.push(e);
    }
}

/// One recorded execution, replayable into any number of
/// [`TraceConsumer`]s. Carries everything a replayed analysis needs that
/// a live run would otherwise pull from the machine or the program: the
/// final memory state, the interpreter result, and a static [`OpCensus`]
/// for cost accounting.
#[derive(Debug, Clone)]
pub struct EventLog {
    threads: usize,
    events: Vec<TraceEvent>,
    table: ReleaseTable,
    census: OpCensus,
    result: RunResult,
    memory: Memory,
}

impl EventLog {
    /// Number of threads in the recorded program.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The recorded events, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded program's static operation census.
    pub fn census(&self) -> OpCensus {
        self.census
    }

    /// The interpreter result of the recorded run.
    pub fn result(&self) -> &RunResult {
        &self.result
    }

    /// Final shared-memory state of the recorded run.
    pub fn final_memory(&self) -> &Memory {
        &self.memory
    }

    /// The arrival list of a [`TraceEventKind::BarrierRelease`] event
    /// (pass the event's `arg`). Returns the barrier and its arrivals in
    /// arrival order.
    pub fn release_arrivals(&self, release_idx: u64) -> (BarrierId, &[(ThreadId, SiteId)]) {
        self.table.get(release_idx)
    }

    /// Serializes the log to a stable, self-describing byte format
    /// (little-endian, magic + version header), so a recording can be
    /// stored and replayed later. [`from_bytes`](EventLog::from_bytes)
    /// round-trips exactly: replaying a deserialized log drives a
    /// consumer through the identical call sequence.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.events.len() * 17 + self.memory.len() * 16);
        put_u64(&mut out, LOG_MAGIC);
        put_u64(&mut out, LOG_VERSION);
        put_u64(&mut out, self.threads as u64);
        put_u64(&mut out, self.census.mem_accesses);
        put_u64(&mut out, self.census.compute_units);
        put_u64(&mut out, self.census.sync_ops);
        put_u64(&mut out, self.census.syscalls);
        put_u64(&mut out, self.result.steps);
        match &self.result.status {
            RunStatus::Done => put_u64(&mut out, 0),
            RunStatus::Deadlock => put_u64(&mut out, 1),
            RunStatus::StepLimit => put_u64(&mut out, 2),
            RunStatus::Fault(msg) => {
                put_u64(&mut out, 3);
                put_u64(&mut out, msg.len() as u64);
                out.extend_from_slice(msg.as_bytes());
            }
        }
        put_u64(&mut out, self.events.len() as u64);
        for e in &self.events {
            out.push(e.kind as u8);
            out.extend_from_slice(&e.thread.0.to_le_bytes());
            out.extend_from_slice(&e.site.0.to_le_bytes());
            put_u64(&mut out, e.arg);
        }
        put_u64(&mut out, self.table.arrivals.len() as u64);
        for &(t, s) in &self.table.arrivals {
            out.extend_from_slice(&t.0.to_le_bytes());
            out.extend_from_slice(&s.0.to_le_bytes());
        }
        put_u64(&mut out, self.table.releases.len() as u64);
        for &(b, start, len) in &self.table.releases {
            out.extend_from_slice(&b.0.to_le_bytes());
            out.extend_from_slice(&start.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        put_u64(&mut out, self.memory.len() as u64);
        for (a, v) in self.memory.iter() {
            put_u64(&mut out, a.0);
            put_u64(&mut out, v);
        }
        out
    }

    /// Deserializes a log written by [`to_bytes`](EventLog::to_bytes).
    ///
    /// Every index a replay later relies on is checked here, so a log
    /// that loads can be replayed by any detector without panicking:
    /// event threads, spawn/join targets and arrival threads below the
    /// thread count, release indices below the release count, arrival
    /// ranges inside the arrival table, and syscall codes in range.
    ///
    /// # Errors
    ///
    /// A description of the corruption (bad magic, unknown version,
    /// truncation, invalid event kind, out-of-range index).
    pub fn from_bytes(bytes: &[u8]) -> Result<EventLog, String> {
        let mut c = Cursor { b: bytes, pos: 0 };
        if c.u64()? != LOG_MAGIC {
            return Err("bad magic".into());
        }
        let version = c.u64()?;
        if version != LOG_VERSION {
            return Err(format!("unsupported version {version}"));
        }
        let threads = c.u64()? as usize;
        let census = OpCensus {
            mem_accesses: c.u64()?,
            compute_units: c.u64()?,
            sync_ops: c.u64()?,
            syscalls: c.u64()?,
        };
        let steps = c.u64()?;
        let status = match c.u64()? {
            0 => RunStatus::Done,
            1 => RunStatus::Deadlock,
            2 => RunStatus::StepLimit,
            3 => {
                let len = c.u64()? as usize;
                let raw = c.take(len)?;
                RunStatus::Fault(String::from_utf8(raw.to_vec()).map_err(|_| "bad fault string")?)
            }
            s => return Err(format!("unknown run status {s}")),
        };
        let n_events = c.u64()? as usize;
        let mut events = Vec::with_capacity(n_events.min(bytes.len() / 17));
        for _ in 0..n_events {
            let code = c.u8()?;
            let kind = kind_from_code(code).ok_or_else(|| format!("bad event kind {code}"))?;
            events.push(TraceEvent {
                kind,
                thread: ThreadId(c.u32()?),
                site: SiteId(c.u32()?),
                arg: c.u64()?,
            });
        }
        let mut table = ReleaseTable::default();
        let n_arrivals = c.u64()? as usize;
        table.arrivals.reserve(n_arrivals.min(bytes.len() / 8));
        for _ in 0..n_arrivals {
            table.arrivals.push((ThreadId(c.u32()?), SiteId(c.u32()?)));
        }
        let n_releases = c.u64()? as usize;
        table.releases.reserve(n_releases.min(bytes.len() / 12));
        for _ in 0..n_releases {
            table
                .releases
                .push((BarrierId(c.u32()?), c.u32()?, c.u32()?));
        }
        let n_cells = c.u64()? as usize;
        let mut memory = Memory::new();
        for _ in 0..n_cells {
            let a = Addr(c.u64()?);
            let v = c.u64()?;
            memory.store(a, v);
        }
        if c.pos != bytes.len() {
            return Err("trailing bytes".into());
        }
        table.check_arrivals(threads)?;
        check_events(&events, threads, table.len())?;
        Ok(EventLog {
            threads,
            events,
            table,
            census,
            result: RunResult { status, steps },
            memory,
        })
    }

    /// Drives `consumer` through the recorded event stream. The
    /// `(index, event)` sequence is identical to what the consumer would
    /// have observed live inside [`Live`] during the recorded run.
    ///
    /// Passing a slice of consumers broadcasts: each event is decoded
    /// once and dispatched to every consumer in slice order, which is how
    /// [`crate::replay::fan_out`] walks the log once per group instead of
    /// once per consumer.
    pub fn replay<C: TraceConsumer + ?Sized>(&self, consumer: &mut C) {
        for (i, e) in self.events.iter().enumerate() {
            self.table.dispatch(i as u64, e, consumer);
        }
    }
}

/// True for the event kinds the indexed sharding path treats as
/// synchronization: the kinds that mutate a happens-before (or lockset)
/// detector's cross-variable state and therefore must reach *every*
/// shard. Barrier arrivals are excluded deliberately — detectors act on
/// the release (which carries the full arrival list), never on the
/// arrival itself — as are atomics (never checked under the C11 model)
/// and the pure bookkeeping kinds (compute, syscall, thread-done).
fn is_sync_kind(kind: TraceEventKind) -> bool {
    matches!(
        kind,
        TraceEventKind::Acquire
            | TraceEventKind::Release
            | TraceEventKind::Signal
            | TraceEventKind::Wait
            | TraceEventKind::Spawn
            | TraceEventKind::Join
            | TraceEventKind::BarrierRelease
            | TraceEventKind::ChanSend
            | TraceEventKind::ChanRecv
    )
}

/// The sync side-stream of one [`EventLog`]: every synchronization /
/// channel event paired with its global event index, plus a copy of the
/// log's barrier side table so the stream replays without the log in
/// hand.
///
/// A `SyncIndex` is **derived at decode time** ([`SyncIndex::of`]) and
/// never serialized: the wire format stays the flat v2 event stream, and
/// a corrupted or adversarial index can never disagree with the log it
/// was built from. Shards consume this shared stream plus their own
/// [`AccessPartition`] slice through a two-cursor merge
/// ([`crate::replay::replay_indexed`]), so per-shard work is
/// O(accesses/shards + sync) instead of O(all events).
#[derive(Debug, Clone)]
pub struct SyncIndex {
    /// `(global event index, event)` in log order.
    events: Vec<(u64, TraceEvent)>,
    table: ReleaseTable,
    total_events: u64,
}

impl SyncIndex {
    /// Builds the sync side-stream of `log` in one pass.
    pub fn of(log: &EventLog) -> SyncIndex {
        let events: Vec<(u64, TraceEvent)> = log
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| is_sync_kind(e.kind))
            .map(|(i, e)| (i as u64, *e))
            .collect();
        SyncIndex {
            events,
            table: log.table.clone(),
            total_events: log.len() as u64,
        }
    }

    /// The indexed sync events, in log order.
    pub fn events(&self) -> &[(u64, TraceEvent)] {
        &self.events
    }

    /// Number of sync events in the stream.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the log had no sync events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Length of the log this index was derived from (all kinds).
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// The barrier side table, which decodes this stream's release
    /// events.
    pub(crate) fn table(&self) -> &ReleaseTable {
        &self.table
    }
}

/// The data accesses of one [`EventLog`], split into per-shard,
/// index-tagged slices in a single pass ([`AccessPartition::of`]).
///
/// Only plain reads and writes are partitioned: atomics never reach a
/// checking detector (C11), so routing them would cost slice space for
/// events every consumer ignores. Each access appears in exactly one
/// slice (the partition property tests pin this), and slices are sorted
/// by index by construction because the partitioner walks the log once
/// in order. Slices hold the same `(global index, event)` pairs as the
/// [`SyncIndex`] stream.
#[derive(Debug, Clone)]
pub struct AccessPartition {
    slices: Vec<Vec<(u64, TraceEvent)>>,
}

impl AccessPartition {
    /// Partitions `log`'s reads and writes into `shards` slices routed
    /// by `route(addr, shards)`. The route function is a parameter (not
    /// baked in) because the shard-owner hash lives with the sharded
    /// detectors, a layer above this crate.
    pub fn of(log: &EventLog, shards: usize, route: impl Fn(Addr, usize) -> usize) -> Self {
        let shards = shards.max(1);
        let mut slices: Vec<Vec<(u64, TraceEvent)>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, e) in log.events.iter().enumerate() {
            if matches!(e.kind, TraceEventKind::Read | TraceEventKind::Write) {
                slices[route(Addr(e.arg), shards)].push((i as u64, *e));
            }
        }
        AccessPartition { slices }
    }

    /// Number of shards (slices).
    pub fn shards(&self) -> usize {
        self.slices.len()
    }

    /// Shard `shard`'s accesses, sorted by global event index.
    pub fn slice(&self, shard: usize) -> &[(u64, TraceEvent)] {
        &self.slices[shard]
    }

    /// Total partitioned accesses across all slices.
    pub fn total_accesses(&self) -> u64 {
        self.slices.iter().map(|s| s.len() as u64).sum()
    }
}

/// Records one execution of `p` under `sched` into an [`EventLog`]: the
/// single interpreter pass of the record-once/replay-many pipeline.
///
/// The run is a plain uninstrumented execution (direct memory effects,
/// no detection) observed by an [`EventLogBuilder`]; because observers
/// are schedule-invisible, any pure-observer detector replayed from the
/// returned log produces exactly what it would have produced live under
/// the same scheduler state.
pub fn record_run(p: &Program, sched: &mut dyn Scheduler, limit: StepLimit) -> EventLog {
    let mut rt = Live::new(EventLogBuilder::new());
    let mut machine = crate::exec::Machine::new(p);
    let result = machine.run_with_limit(&mut rt, sched, limit);
    let b = rt.into_inner();
    EventLog {
        threads: p.thread_count(),
        events: b.events,
        table: b.table,
        census: OpCensus::of(p),
        result,
        memory: machine.memory().clone(),
    }
}

/// `b"TXLOG\0\0\x01"` as a little-endian u64: identifies a serialized
/// [`EventLog`].
const LOG_MAGIC: u64 = u64::from_le_bytes(*b"TXLOG\0\0\x01");
/// Bump on any layout change; readers reject other versions. Version 2
/// added the channel event kinds ([`TraceEventKind::ChanSend`]/
/// [`TraceEventKind::ChanRecv`]) — version-1 logs from pre-channel
/// builds are rejected rather than mis-decoded.
pub const LOG_VERSION: u64 = 2;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over a serialized log.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or("truncated log")?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Inverse of `kind as u8` over [`TraceEventKind`]'s `#[repr(u8)]`
/// declaration order.
fn kind_from_code(code: u8) -> Option<TraceEventKind> {
    use TraceEventKind::*;
    Some(match code {
        0 => Read,
        1 => Write,
        2 => Rmw,
        3 => Acquire,
        4 => Release,
        5 => Signal,
        6 => Wait,
        7 => Spawn,
        8 => Join,
        9 => BarrierArrive,
        10 => BarrierRelease,
        11 => ThreadDone,
        12 => Compute,
        13 => Syscall,
        14 => ChanSend,
        15 => ChanRecv,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ProgramBuilder;
    use crate::replay::tests::Script;
    use crate::sched::RoundRobin;
    use crate::{Machine, RunStatus};

    #[test]
    fn records_accesses_and_sync_in_order() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).lock(l).write_l(x, 1, "w").unlock(l);
        b.thread(1).read_l(x, "r");
        let p = b.build();
        let log = record_run(&p, &mut RoundRobin::new(), StepLimit::default());
        assert_eq!(log.result().status, RunStatus::Done);

        let w = p.site("w").unwrap();
        let r = p.site("r").unwrap();
        let kinds: Vec<TraceEventKind> = log.events().iter().map(|e| e.kind).collect();
        let at = |k: TraceEventKind| kinds.iter().position(|&x| x == k).unwrap();
        assert!(at(TraceEventKind::Acquire) < at(TraceEventKind::Write));
        assert!(at(TraceEventKind::Write) < at(TraceEventKind::Release));
        assert_eq!(log.events()[at(TraceEventKind::Write)].site, w);
        assert_eq!(log.events()[at(TraceEventKind::Read)].site, r);
        let count = |k: TraceEventKind| kinds.iter().filter(|&&x| x == k).count();
        assert_eq!(
            count(TraceEventKind::Write) + count(TraceEventKind::Read),
            2
        );
        assert_eq!(count(TraceEventKind::ThreadDone), 2);
    }

    /// A program exercising every event kind.
    fn all_kinds_program() -> Program {
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        let arr = b.array("a", 8);
        let l = b.lock_id("l");
        let c = b.cond_id("c");
        let bar = b.barrier_id("bar");
        let ch = b.chan_id("ch", 2);
        b.thread(0)
            .spawn(ThreadId(2))
            .write(x, 1)
            .signal(c)
            .lock(l)
            .rmw(x, 1)
            .unlock(l)
            .send(ch)
            .barrier(bar)
            .join(ThreadId(2))
            .syscall(crate::ir::SyscallKind::Io);
        b.thread(1)
            .wait(c)
            .loop_n(4, |t| {
                t.read_arr(arr, 8).compute(3);
            })
            .recv(ch)
            .barrier(bar);
        b.thread(2).read(x); // spawn target: starts parked
        b.build()
    }

    fn all_kinds_log() -> EventLog {
        let mut sched = crate::sched::RandomSched::new(9);
        record_run(&all_kinds_program(), &mut sched, StepLimit::default())
    }

    #[test]
    fn event_log_replay_reproduces_the_live_stream() {
        let p = all_kinds_program();
        let mut rt = Live::new(Script::default());
        let mut m = Machine::new(&p);
        let live_run = m.run(&mut rt, &mut crate::sched::RandomSched::new(9));
        assert_eq!(live_run.status, RunStatus::Done);
        let live = rt.into_inner();

        let log = all_kinds_log();
        let mut replayed = Script::default();
        log.replay(&mut replayed);

        assert_eq!(live, replayed, "replayed (idx, event) sequence diverged");
        assert_eq!(live.0.len(), log.len());
        assert_eq!(log.final_memory(), m.memory());
        assert_eq!(log.result(), &live_run);
        assert_eq!(log.thread_count(), 3);
        assert!(!log.is_empty());
    }

    #[test]
    fn serialized_log_round_trips_exactly() {
        let log = all_kinds_log();
        let bytes = log.to_bytes();
        let back = EventLog::from_bytes(&bytes).expect("round trip");

        assert_eq!(back.events(), log.events());
        assert_eq!(back.thread_count(), log.thread_count());
        assert_eq!(back.census(), log.census());
        assert_eq!(back.result(), log.result());
        assert_eq!(back.final_memory(), log.final_memory());
        let mut live = Script::default();
        log.replay(&mut live);
        let mut reloaded = Script::default();
        back.replay(&mut reloaded);
        assert_eq!(live, reloaded, "replay diverged after deserialization");

        // Corruption is a readable error, never a panic.
        assert!(EventLog::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(EventLog::from_bytes(&[0u8; 16]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(EventLog::from_bytes(&extra).is_err());
    }

    #[test]
    fn stale_wire_versions_are_rejected() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).write(x, 1);
        let p = b.build();
        let mut sched = RoundRobin::new();
        let log = record_run(&p, &mut sched, StepLimit::default());
        let mut bytes = log.to_bytes();
        // Rewrite the version field (second u64) to the pre-channel v1.
        bytes[8..16].copy_from_slice(&1u64.to_le_bytes());
        let err = EventLog::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("unsupported version 1"), "{err}");
    }

    /// Serializes a hand-built `threads`-thread log of `events` over
    /// `table`, bypassing the recorder.
    fn hand_built(threads: usize, events: Vec<TraceEvent>, table: ReleaseTable) -> Vec<u8> {
        EventLog {
            threads,
            events,
            table,
            census: OpCensus::default(),
            result: RunResult {
                status: RunStatus::Done,
                steps: 0,
            },
            memory: Memory::new(),
        }
        .to_bytes()
    }

    fn ev(kind: TraceEventKind, thread: u32, arg: u64) -> TraceEvent {
        TraceEvent {
            kind,
            thread: ThreadId(thread),
            site: SiteId(0),
            arg,
        }
    }

    #[test]
    fn decode_rejects_release_indices_outside_the_table() {
        let release = vec![ev(TraceEventKind::BarrierRelease, 0, 5)];
        let err = EventLog::from_bytes(&hand_built(2, release, ReleaseTable::default()));
        assert!(err.unwrap_err().contains("BarrierRelease"));

        // A release whose arrival range overruns the arrival table, and
        // one whose arrival names a thread the log does not have.
        let mut table = ReleaseTable::default();
        table.releases.push((BarrierId(0), 0, 3));
        table.arrivals.push((ThreadId(0), SiteId(0)));
        let release = vec![ev(TraceEventKind::BarrierRelease, 0, 0)];
        let err = EventLog::from_bytes(&hand_built(2, release.clone(), table));
        assert!(err.unwrap_err().contains("out of range"));
        let mut table = ReleaseTable::default();
        table.encode(Event::BarrierRelease {
            b: BarrierId(0),
            arrivals: &[(ThreadId(0), SiteId(0)), (ThreadId(7), SiteId(0))],
        });
        let err = EventLog::from_bytes(&hand_built(2, release, table));
        assert!(err.unwrap_err().contains("thread 7"));
    }

    #[test]
    fn decode_rejects_threads_beyond_the_thread_count() {
        let read = vec![ev(TraceEventKind::Read, 1000, 0x40)];
        let err = EventLog::from_bytes(&hand_built(2, read, ReleaseTable::default()));
        assert!(err.unwrap_err().contains("2-thread log"));
        for kind in [TraceEventKind::Spawn, TraceEventKind::Join] {
            let target = vec![ev(kind, 0, 2)];
            assert!(EventLog::from_bytes(&hand_built(2, target, ReleaseTable::default())).is_err());
        }
    }

    #[test]
    fn decode_rejects_unknown_syscall_codes() {
        let syscall = vec![ev(TraceEventKind::Syscall, 0, 9)];
        let err = EventLog::from_bytes(&hand_built(2, syscall, ReleaseTable::default()));
        assert!(err.unwrap_err().contains("Syscall"));
        let valid = vec![ev(TraceEventKind::Syscall, 0, 3)];
        assert!(EventLog::from_bytes(&hand_built(2, valid, ReleaseTable::default())).is_ok());
    }

    #[test]
    fn census_matches_dynamic_op_classes() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).loop_n(5, |t| {
            t.lock(l).rmw(x, 1).unlock(l).compute(7);
        });
        b.thread(1)
            .read(x)
            .syscall(crate::ir::SyscallKind::Alloc)
            .write(x, 2);
        let p = b.build();
        let c = OpCensus::of(&p);
        assert_eq!(c.mem_accesses, 5 + 2);
        assert_eq!(c.compute_units, 5 * 7);
        assert_eq!(c.sync_ops, 5 * 2);
        assert_eq!(c.syscalls, 1);
    }

    #[test]
    fn sync_index_carries_exactly_the_sync_events_with_log_positions() {
        let log = all_kinds_log();
        let sync = SyncIndex::of(&log);
        assert_eq!(sync.total_events(), log.len() as u64);
        assert_eq!(sync.len(), sync.events().len());
        assert!(!sync.is_empty());
        // Every entry points back at the identical log event, and the
        // stream is exactly the sync-kind subsequence in order.
        let want: Vec<(u64, TraceEvent)> = log
            .events()
            .iter()
            .enumerate()
            .filter(|(_, e)| is_sync_kind(e.kind))
            .map(|(i, e)| (i as u64, *e))
            .collect();
        assert_eq!(sync.events(), &want[..]);
        assert!(want.iter().any(|(_, e)| e.kind == TraceEventKind::ChanSend));
        assert!(want
            .iter()
            .any(|(_, e)| e.kind == TraceEventKind::BarrierRelease));
        // The barrier side table replays without the log in hand.
        assert_eq!(sync.table(), &log.table);
    }

    #[test]
    fn access_partition_splits_reads_and_writes_exactly_once() {
        let log = all_kinds_log();
        let route = |a: Addr, n: usize| (a.0 as usize / 8) % n;
        for shards in [1usize, 2, 4, 8] {
            let part = AccessPartition::of(&log, shards, route);
            assert_eq!(part.shards(), shards);
            let n_accesses = log
                .events()
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::Read | TraceEventKind::Write))
                .count() as u64;
            assert_eq!(part.total_accesses(), n_accesses);
            let mut seen = std::collections::BTreeSet::new();
            for s in 0..shards {
                let slice = part.slice(s);
                assert!(
                    slice.windows(2).all(|w| w[0].0 < w[1].0),
                    "slices are index-sorted"
                );
                for &(idx, e) in slice {
                    assert_eq!(route(Addr(e.arg), shards), s, "routed to the owner");
                    assert!(seen.insert(idx), "each access on exactly one shard");
                    assert_eq!(log.events()[idx as usize], e);
                }
            }
        }
    }

    #[test]
    fn barrier_release_is_recorded() {
        let mut b = ProgramBuilder::new(2);
        let bar = b.barrier_id("bar");
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t).read(x).barrier(bar);
        }
        let p = b.build();
        let log = record_run(&p, &mut RoundRobin::new(), StepLimit::default());
        let releases: Vec<_> = log
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::BarrierRelease)
            .map(|e| log.release_arrivals(e.arg))
            .collect();
        assert_eq!(releases.len(), 1);
        assert_eq!(releases[0].0, bar);
        assert_eq!(releases[0].1.len(), 2);
    }
}
