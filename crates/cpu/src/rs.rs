//! The unified reservation station.
//!
//! One pool of entries shared by every functional-unit class, as on the
//! paper's Kaby Lake target ("a unified reservation station, shared across
//! execution units, stores up to 97 micro-ops", §4.1). Its finite capacity
//! is the contended resource of the `G^I_RS` gadget: dependent instructions
//! that cannot issue pin entries, the pool fills, dispatch stalls, and the
//! frontend stops fetching (§3.2.2, Figure 5).

use si_isa::FuClass;

/// A source operand: ready with a value, or waiting on a producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Value available.
    Ready(u64),
    /// Waiting for the instruction with this sequence number to write back.
    Waiting(u64),
}

impl Operand {
    /// Returns the value if ready.
    pub fn value(&self) -> Option<u64> {
        match self {
            Operand::Ready(v) => Some(*v),
            Operand::Waiting(_) => None,
        }
    }
}

/// An instruction's source operands, stored inline (0–2 of them) so the
/// per-cycle issue scan and CDB wakeup never chase a heap pointer per
/// entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperandList {
    ops: [Option<Operand>; 2],
}

impl OperandList {
    /// An empty operand list.
    pub fn new() -> OperandList {
        OperandList::default()
    }

    /// Appends an operand.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds two operands.
    pub fn push(&mut self, op: Operand) {
        let slot = self
            .ops
            .iter_mut()
            .find(|o| o.is_none())
            .expect("at most two source operands");
        *slot = Some(op);
    }

    /// Iterates the operands.
    pub fn iter(&self) -> impl Iterator<Item = &Operand> {
        self.ops.iter().flatten()
    }

    /// Mutable iteration.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Operand> {
        self.ops.iter_mut().flatten()
    }
}

impl FromIterator<Operand> for OperandList {
    fn from_iter<I: IntoIterator<Item = Operand>>(iter: I) -> OperandList {
        let mut list = OperandList::new();
        for op in iter {
            list.push(op);
        }
        list
    }
}

impl<'a> IntoIterator for &'a OperandList {
    type Item = &'a Operand;
    type IntoIter = std::iter::Flatten<std::slice::Iter<'a, Option<Operand>>>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter().flatten()
    }
}

/// One reservation-station entry.
#[derive(Debug, Clone)]
pub struct RsEntry {
    /// The instruction's sequence number (age key for scheduling).
    pub seq: u64,
    /// The functional-unit class it needs.
    pub fu: FuClass,
    /// Source operands.
    pub operands: OperandList,
    /// Set once issued. Issued entries normally leave the pool immediately;
    /// under the §5.4 "hold resources until non-speculative" defense they
    /// stay (occupying capacity) until retirement.
    pub issued: bool,
}

impl RsEntry {
    /// Whether every operand is ready.
    pub fn ready(&self) -> bool {
        self.operands.iter().all(|o| o.value().is_some())
    }
}

/// The unified reservation station.
#[derive(Debug, Clone)]
pub struct ReservationStation {
    entries: Vec<RsEntry>,
    capacity: usize,
}

impl ReservationStation {
    /// Creates an empty station.
    pub fn new(capacity: usize) -> ReservationStation {
        ReservationStation {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Occupied entries (issued-but-held entries count).
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Whether dispatch must stall.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Inserts a dispatched instruction.
    ///
    /// # Panics
    ///
    /// Panics if the station is full.
    pub fn insert(&mut self, entry: RsEntry) {
        assert!(!self.is_full(), "RS overflow");
        self.entries.push(entry);
    }

    /// Broadcasts a produced value: every operand waiting on `seq` becomes
    /// ready (the common-data-bus wakeup).
    pub fn wake(&mut self, seq: u64, value: u64) {
        for e in &mut self.entries {
            for op in e.operands.iter_mut() {
                if let Operand::Waiting(s) = op {
                    if *s == seq {
                        *op = Operand::Ready(value);
                    }
                }
            }
        }
    }

    /// Iterates entries (unordered pool order; callers sort by `seq` for
    /// age-ordered scheduling). An entry's index in this order is its
    /// handle for `get` and `mark_issued` until the pool next shrinks.
    pub fn iter(&self) -> impl Iterator<Item = &RsEntry> {
        self.entries.iter()
    }

    /// The entry at pool index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub(crate) fn get(&self, idx: usize) -> &RsEntry {
        &self.entries[idx]
    }

    /// Marks the entry at pool index `idx` issued. It keeps its slot until
    /// [`drop_issued`](ReservationStation::drop_issued) or, under the §5.4
    /// hold-resources defense, [`release`](ReservationStation::release) at
    /// retirement.
    pub(crate) fn mark_issued(&mut self, idx: usize) {
        self.entries[idx].issued = true;
    }

    /// Frees every issued entry's slot in one pass.
    pub(crate) fn drop_issued(&mut self) {
        self.entries.retain(|e| !e.issued);
    }

    /// Releases a held entry at retirement.
    pub fn release(&mut self, seq: u64) {
        if let Some(i) = self.entries.iter().position(|e| e.seq == seq) {
            self.entries.swap_remove(i);
        }
    }

    /// Drops every entry younger than `branch_seq` (squash path).
    pub fn squash_after(&mut self, branch_seq: u64) {
        self.entries.retain(|e| e.seq <= branch_seq);
    }

    /// Whether an *unissued* entry older than `seq` needs `fu` — the §5.4
    /// strict-age-priority reservation test.
    pub fn older_unissued_for(&self, fu: FuClass, seq: u64) -> bool {
        self.entries
            .iter()
            .any(|e| !e.issued && e.fu == fu && e.seq < seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, fu: FuClass, ops: Vec<Operand>) -> RsEntry {
        RsEntry {
            seq,
            fu,
            operands: ops.into_iter().collect(),
            issued: false,
        }
    }

    #[test]
    fn wakeup_readies_waiting_operands() {
        let mut rs = ReservationStation::new(4);
        rs.insert(entry(
            1,
            FuClass::IntAlu,
            vec![Operand::Waiting(0), Operand::Ready(5)],
        ));
        assert!(!rs.iter().next().unwrap().ready());
        rs.wake(0, 37);
        let e = rs.iter().next().unwrap();
        assert!(e.ready());
        assert_eq!(e.operands.iter().next().unwrap().value(), Some(37));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut rs = ReservationStation::new(2);
        rs.insert(entry(0, FuClass::IntAlu, vec![]));
        rs.insert(entry(1, FuClass::IntAlu, vec![]));
        assert!(rs.is_full());
    }

    #[test]
    #[should_panic(expected = "RS overflow")]
    fn overflow_panics() {
        let mut rs = ReservationStation::new(1);
        rs.insert(entry(0, FuClass::IntAlu, vec![]));
        rs.insert(entry(1, FuClass::IntAlu, vec![]));
    }

    #[test]
    fn issued_entries_hold_their_slot_until_dropped_or_released() {
        let mut rs = ReservationStation::new(4);
        for s in 0..3 {
            rs.insert(entry(s, FuClass::IntAlu, vec![]));
        }
        rs.mark_issued(0);
        rs.mark_issued(2);
        assert_eq!(rs.occupancy(), 3, "marking alone frees nothing");
        assert!(!rs.older_unissued_for(FuClass::IntAlu, 1));
        assert!(rs.older_unissued_for(FuClass::IntAlu, 2));
        rs.drop_issued();
        assert_eq!(rs.occupancy(), 1);
        assert_eq!(rs.get(0).seq, 1, "the survivor keeps pool order");
        // Under the hold-resources defense the slot is freed at retire.
        rs.mark_issued(0);
        assert!(rs.get(0).issued);
        rs.release(1);
        assert_eq!(rs.occupancy(), 0);
    }

    #[test]
    fn squash_drops_younger_only() {
        let mut rs = ReservationStation::new(8);
        for s in 0..5 {
            rs.insert(entry(s, FuClass::IntAlu, vec![]));
        }
        rs.squash_after(2);
        assert_eq!(rs.occupancy(), 3);
        assert!(rs.iter().all(|e| e.seq <= 2));
    }

    #[test]
    fn age_priority_reservation_detects_older_waiters() {
        let mut rs = ReservationStation::new(8);
        rs.insert(entry(3, FuClass::FpSqrt, vec![Operand::Waiting(1)]));
        rs.insert(entry(7, FuClass::FpSqrt, vec![]));
        // The younger (7) must see the older unissued sqrt (3).
        assert!(rs.older_unissued_for(FuClass::FpSqrt, 7));
        assert!(!rs.older_unissued_for(FuClass::FpSqrt, 3));
        assert!(!rs.older_unissued_for(FuClass::IntMul, 7));
    }
}
