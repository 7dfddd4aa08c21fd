//! Per-thread transaction bookkeeping.
//!
//! The tracked read/write sets and the store buffer are the hottest
//! structures in the simulator — every transactional access tests and
//! updates them, and every conflict scan probes them once per active
//! transaction. They are therefore kept data-oriented: line membership
//! is a bitset indexed directly by the raw cache-line index (the
//! program's line space is dense, see `txrace_sim::intern`), paired
//! with an insertion-ordered list of touched lines so clearing costs
//! O(footprint) instead of O(address space); the store buffer maps raw
//! addresses to dense slots through a paged first-touch map
//! ([`txrace_sim::AddrMap`], O(touched) space) and generation-stamps the
//! slots so reuse across transactions needs no per-entry reset.

use txrace_sim::{Addr, AddrMap, CacheLine, JournalMark, WriteJournal};

use crate::status::AbortStatus;

/// The lifecycle of one hardware transaction slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// No transaction in flight.
    Idle,
    /// Transaction executing.
    Active,
    /// Transaction has been aborted by the hardware but the thread has not
    /// yet observed it (it observes at its next access or at `xend`).
    Doomed(AbortStatus),
}

/// A set of cache lines: one bit per raw line index plus the list of
/// members in insertion order.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineSet {
    words: Vec<u64>,
    members: Vec<CacheLine>,
}

impl LineSet {
    /// O(1) membership test.
    #[inline]
    pub(crate) fn contains(&self, line: CacheLine) -> bool {
        match self.words.get(line.0 as usize / 64) {
            Some(w) => w & (1 << (line.0 % 64)) != 0,
            None => false,
        }
    }

    /// Adds `line`; returns true if it was new.
    #[inline]
    pub(crate) fn insert(&mut self, line: CacheLine) -> bool {
        let w = line.0 as usize / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1 << (line.0 % 64);
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.members.push(line);
        true
    }

    /// Number of distinct lines.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Members in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = CacheLine> + '_ {
        self.members.iter().copied()
    }

    /// Empties the set in O(members), keeping capacity.
    pub(crate) fn clear(&mut self) {
        for l in self.members.drain(..) {
            self.words[l.0 as usize / 64] &= !(1 << (l.0 % 64));
        }
    }

    /// Pre-sizes the bitset for raw line indices below `line_capacity`.
    pub(crate) fn reserve(&mut self, line_capacity: usize) {
        let words = line_capacity.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }
}

/// The transactional store buffer: raw addresses resolve to dense slots
/// through a paged first-touch map, and the slots are generation-stamped
/// so clearing is O(1) plus list reset. Slot ids persist across clears
/// (they grow monotonically with the distinct addresses this slot's
/// transactions ever buffered), so a recycled buffer keeps both its map
/// and its tables.
#[derive(Debug, Clone)]
pub(crate) struct WriteBuf {
    ids: AddrMap,
    vals: Vec<u64>,
    stamps: Vec<u64>,
    generation: u64,
    touched: Vec<Addr>,
}

impl Default for WriteBuf {
    fn default() -> Self {
        WriteBuf {
            ids: AddrMap::new(),
            vals: Vec::new(),
            stamps: Vec::new(),
            // Stamp 0 means "never written"; start at 1.
            generation: 1,
            touched: Vec::new(),
        }
    }
}

impl WriteBuf {
    /// The buffered value at `addr`, if this transaction stored one.
    #[inline]
    pub(crate) fn get(&self, addr: Addr) -> Option<u64> {
        let i = self.ids.get(addr)? as usize;
        (self.stamps[i] == self.generation).then(|| self.vals[i])
    }

    /// Buffers `val` at `addr`.
    #[inline]
    pub(crate) fn insert(&mut self, addr: Addr, val: u64) {
        let i = self.ids.resolve(addr) as usize;
        if i == self.vals.len() {
            self.vals.push(0);
            self.stamps.push(0);
        }
        if self.stamps[i] != self.generation {
            self.stamps[i] = self.generation;
            self.touched.push(addr);
        }
        self.vals[i] = val;
    }

    /// Buffered `(addr, value)` pairs in first-store order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        self.touched.iter().map(|&a| {
            (
                a,
                self.vals[self.ids.get(a).expect("touched is mapped") as usize],
            )
        })
    }

    /// Discards all buffered stores (O(1) plus list reset).
    pub(crate) fn clear(&mut self) {
        self.generation += 1;
        self.touched.clear();
    }

    /// Pre-sizes the map's page table for raw addresses below
    /// `addr_capacity` (8 bytes per 4096 addresses of span).
    pub(crate) fn reserve(&mut self, addr_capacity: usize) {
        self.ids.reserve_span(addr_capacity);
    }
}

/// One in-flight transaction's tracked state.
#[derive(Debug, Clone, Default)]
pub(crate) struct Txn {
    /// Lines read (tracked for conflict detection).
    pub read_lines: LineSet,
    /// Lines written.
    pub write_lines: LineSet,
    /// Buffered stores, applied to memory only on commit
    /// ([`VersionPolicy::Buffer`](crate::VersionPolicy) only).
    pub write_buf: WriteBuf,
    /// Undo log of this transaction's eager in-place stores
    /// ([`VersionPolicy::Undo`](crate::VersionPolicy) only): unwound at
    /// doom time, truncated on commit.
    pub journal: WriteJournal,
    /// Journal watermark taken at `xbegin`.
    pub begin: JournalMark,
    /// Doom status, if the hardware aborted this transaction.
    pub doom: Option<AbortStatus>,
    /// The first conflicting line (for the optional conflict-address
    /// reporting extension).
    pub conflict_line: Option<CacheLine>,
    /// Dynamic count of data accesses inside this transaction (statistics).
    pub accesses: u64,
    /// Per-cache-set occupancy of the write set (lazily sized; avoids an
    /// O(write-set) scan on every new line).
    pub set_occupancy: Vec<u16>,
}

impl Txn {
    pub(crate) fn state(&self) -> TxnState {
        match self.doom {
            Some(s) => TxnState::Doomed(s),
            None => TxnState::Active,
        }
    }

    /// Total distinct lines in the footprint.
    pub(crate) fn footprint_lines(&self) -> usize {
        self.read_lines.len()
            + self
                .write_lines
                .iter()
                .filter(|&l| !self.read_lines.contains(l))
                .count()
    }

    /// Returns the slot to its pristine state, keeping allocations so a
    /// recycled transaction does no work proportional to the address
    /// space.
    pub(crate) fn reset(&mut self) {
        self.read_lines.clear();
        self.write_lines.clear();
        self.write_buf.clear();
        self.journal.clear();
        self.begin = JournalMark::default();
        self.doom = None;
        self.conflict_line = None;
        self.accesses = 0;
        self.set_occupancy.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_counts_union() {
        let mut t = Txn::default();
        t.read_lines.insert(CacheLine(1));
        t.read_lines.insert(CacheLine(2));
        t.write_lines.insert(CacheLine(2));
        t.write_lines.insert(CacheLine(3));
        assert_eq!(t.footprint_lines(), 3);
    }

    #[test]
    fn state_reflects_doom() {
        let mut t = Txn::default();
        assert_eq!(t.state(), TxnState::Active);
        t.doom = Some(AbortStatus::CAPACITY);
        assert_eq!(t.state(), TxnState::Doomed(AbortStatus::CAPACITY));
    }

    #[test]
    fn line_set_insert_contains_clear() {
        let mut s = LineSet::default();
        assert!(s.insert(CacheLine(3)));
        assert!(s.insert(CacheLine(200)));
        assert!(!s.insert(CacheLine(3)), "duplicate insert");
        assert!(s.contains(CacheLine(3)));
        assert!(s.contains(CacheLine(200)));
        assert!(!s.contains(CacheLine(4)));
        assert!(!s.contains(CacheLine(100_000)), "beyond capacity");
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), [CacheLine(3), CacheLine(200)]);
        s.clear();
        assert_eq!(s.len(), 0);
        assert!(!s.contains(CacheLine(3)));
        assert!(s.insert(CacheLine(3)), "reusable after clear");
    }

    #[test]
    fn write_buf_overwrites_and_survives_clear() {
        let mut b = WriteBuf::default();
        assert_eq!(b.get(Addr(8)), None);
        b.insert(Addr(8), 1);
        b.insert(Addr(8), 2);
        b.insert(Addr(64), 3);
        assert_eq!(b.get(Addr(8)), Some(2));
        assert_eq!(
            b.entries().collect::<Vec<_>>(),
            [(Addr(8), 2), (Addr(64), 3)]
        );
        b.clear();
        assert_eq!(b.get(Addr(8)), None, "stale generation invisible");
        assert_eq!(b.entries().count(), 0);
        b.insert(Addr(8), 9);
        assert_eq!(b.get(Addr(8)), Some(9));
    }

    #[test]
    fn reset_keeps_capacity_but_clears_state() {
        let mut t = Txn {
            set_occupancy: vec![2, 0, 1],
            ..Txn::default()
        };
        t.read_lines.insert(CacheLine(1));
        t.write_lines.insert(CacheLine(2));
        t.write_buf.insert(Addr(128), 5);
        t.doom = Some(AbortStatus::CAPACITY);
        t.accesses = 7;
        t.reset();
        assert_eq!(t.state(), TxnState::Active);
        assert_eq!(t.footprint_lines(), 0);
        assert_eq!(t.write_buf.get(Addr(128)), None);
        assert_eq!(t.accesses, 0);
        assert!(t.set_occupancy.iter().all(|&o| o == 0));
    }
}
