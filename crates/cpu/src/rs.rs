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

/// A wakeup record: the entry `consumer` in slot `slot` has at least one
/// operand waiting on `producer`. Ordered by `(producer, consumer)`, which
/// is unique per record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Waiter {
    producer: u64,
    consumer: u64,
    slot: usize,
}

/// Adds `(seq, slot)` to an age-ordered ready list.
fn enqueue_ready(ready: &mut Vec<(u64, usize)>, seq: u64, slot: usize) {
    let at = ready.partition_point(|&(s, _)| s < seq);
    ready.insert(at, (seq, slot));
}

/// The unified reservation station.
///
/// A slot-stable pool: an entry keeps its slot index (its handle) from
/// [`insert`](ReservationStation::insert) until it issues, is released or
/// is squashed, and freed slots go on a free list. The slot array grows
/// to the occupancy high-water mark, not the capacity, so cloning a core
/// (every checkpoint fork does) copies only slots that were used. Two
/// indexes are kept up to date as events happen, so no stage rescans
/// the pool:
///
/// * the **ready list** — every unissued entry whose operands are all
///   ready, as `(seq, slot)` in age order (issue's candidate list);
/// * the **waiter records** — one per (producer, waiting consumer) pair,
///   sorted by producer, so a CDB wakeup visits only the consumers of the
///   value it broadcasts.
#[derive(Debug, Clone)]
pub struct ReservationStation {
    slots: Vec<Option<RsEntry>>,
    free: Vec<usize>,
    capacity: usize,
    ready: Vec<(u64, usize)>,
    waiters: Vec<Waiter>,
}

impl ReservationStation {
    /// Creates an empty station.
    pub fn new(capacity: usize) -> ReservationStation {
        ReservationStation {
            slots: Vec::new(),
            free: Vec::new(),
            capacity,
            ready: Vec::new(),
            waiters: Vec::new(),
        }
    }

    /// Occupied entries (issued-but-held entries count).
    pub fn occupancy(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether dispatch must stall.
    pub fn is_full(&self) -> bool {
        self.occupancy() >= self.capacity
    }

    /// Inserts a dispatched, unissued instruction and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if the station is full.
    pub fn insert(&mut self, entry: RsEntry) -> usize {
        assert!(!self.is_full(), "RS overflow");
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        debug_assert!(!entry.issued, "entries enter the station unissued");
        let mut last = None;
        for op in entry.operands.iter() {
            if let Operand::Waiting(producer) = *op {
                if last != Some(producer) {
                    let w = Waiter {
                        producer,
                        consumer: entry.seq,
                        slot,
                    };
                    let at = self.waiters.partition_point(|x| *x < w);
                    self.waiters.insert(at, w);
                    last = Some(producer);
                }
            }
        }
        if entry.ready() {
            enqueue_ready(&mut self.ready, entry.seq, slot);
        }
        self.slots[slot] = Some(entry);
        slot
    }

    /// Broadcasts a produced value: every operand waiting on `seq` becomes
    /// ready (the common-data-bus wakeup), and entries left with no
    /// waiting operand join the ready list.
    pub fn wake(&mut self, seq: u64, value: u64) {
        let start = self.waiters.partition_point(|w| w.producer < seq);
        let len = self.waiters[start..].partition_point(|w| w.producer == seq);
        for w in self.waiters.drain(start..start + len) {
            let e = self.slots[w.slot]
                .as_mut()
                .expect("waiter records name occupied slots");
            for op in e.operands.iter_mut() {
                if *op == Operand::Waiting(seq) {
                    *op = Operand::Ready(value);
                }
            }
            if e.ready() {
                enqueue_ready(&mut self.ready, w.consumer, w.slot);
            }
        }
    }

    /// The ready list: `(seq, slot)` of every unissued entry whose
    /// operands are all ready, oldest first.
    pub fn ready(&self) -> &[(u64, usize)] {
        &self.ready
    }

    /// Iterates occupied entries in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &RsEntry> {
        self.slots.iter().flatten()
    }

    /// The entry in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub(crate) fn get(&self, slot: usize) -> &RsEntry {
        self.slots[slot].as_ref().expect("occupied slot")
    }

    /// Issues the ready entry in `slot`: it leaves the ready list, and its
    /// slot is freed — or, with `hold` (the §5.4 hold-resources defense),
    /// kept until [`release`](ReservationStation::release) at retirement.
    pub(crate) fn issue(&mut self, slot: usize, hold: bool) {
        let seq = self.get(slot).seq;
        let at = self
            .ready
            .binary_search(&(seq, slot))
            .expect("only ready entries issue");
        self.ready.remove(at);
        if hold {
            self.slots[slot].as_mut().expect("occupied slot").issued = true;
        } else {
            self.free_slot(slot);
        }
    }

    fn free_slot(&mut self, slot: usize) {
        self.slots[slot] = None;
        self.free.push(slot);
    }

    /// Releases a held entry at retirement.
    pub fn release(&mut self, seq: u64) {
        if let Some(slot) = self
            .slots
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.seq == seq))
        {
            debug_assert!(self.get(slot).issued, "only issued entries are held");
            self.free_slot(slot);
        }
    }

    /// Drops every entry younger than `branch_seq`, with its ready and
    /// waiter records (squash path).
    pub fn squash_after(&mut self, branch_seq: u64) {
        for slot in 0..self.slots.len() {
            if self.slots[slot]
                .as_ref()
                .is_some_and(|e| e.seq > branch_seq)
            {
                self.free_slot(slot);
            }
        }
        let keep = self.ready.partition_point(|&(s, _)| s <= branch_seq);
        self.ready.truncate(keep);
        self.waiters.retain(|w| w.consumer <= branch_seq);
    }

    /// Whether an *unissued* entry older than `seq` needs `fu` — the §5.4
    /// strict-age-priority reservation test.
    pub fn older_unissued_for(&self, fu: FuClass, seq: u64) -> bool {
        self.iter().any(|e| !e.issued && e.fu == fu && e.seq < seq)
    }

    /// Asserts, in debug and test builds, that the ready list and the
    /// waiter records equal rebuilds from the occupied slots.
    pub(crate) fn debug_check(&self) {
        let occupied = || {
            self.slots
                .iter()
                .enumerate()
                .filter_map(|(slot, e)| Some((slot, e.as_ref()?)))
        };
        debug_assert_eq!(
            self.ready,
            {
                let mut ready: Vec<(u64, usize)> = occupied()
                    .filter(|(_, e)| !e.issued && e.ready())
                    .map(|(slot, e)| (e.seq, slot))
                    .collect();
                ready.sort_unstable();
                ready
            },
            "ready list differs from the unissued ready entries"
        );
        debug_assert_eq!(
            self.waiters,
            {
                let mut waiters: Vec<Waiter> = occupied()
                    .flat_map(|(slot, e)| {
                        e.operands.iter().filter_map(move |op| match *op {
                            Operand::Waiting(producer) => Some(Waiter {
                                producer,
                                consumer: e.seq,
                                slot,
                            }),
                            Operand::Ready(_) => None,
                        })
                    })
                    .collect();
                waiters.sort_unstable();
                waiters.dedup();
                waiters
            },
            "waiter records differ from the waiting operands"
        );
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

    fn ready_seqs(rs: &ReservationStation) -> Vec<u64> {
        rs.ready().iter().map(|&(seq, _)| seq).collect()
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
        assert!(rs.ready().is_empty());
        rs.wake(0, 37);
        let e = rs.iter().next().unwrap();
        assert!(e.ready());
        assert_eq!(e.operands.iter().next().unwrap().value(), Some(37));
        assert_eq!(ready_seqs(&rs), [1]);
        rs.debug_check();
    }

    #[test]
    fn wakeup_keeps_the_ready_list_in_age_order() {
        let mut rs = ReservationStation::new(4);
        rs.insert(entry(1, FuClass::IntAlu, vec![Operand::Waiting(0)]));
        rs.insert(entry(2, FuClass::IntAlu, vec![]));
        rs.insert(entry(3, FuClass::IntAlu, vec![Operand::Waiting(2)]));
        assert_eq!(ready_seqs(&rs), [2]);
        rs.wake(0, 1);
        assert_eq!(ready_seqs(&rs), [1, 2], "an older wakeup goes first");
        rs.wake(9, 1);
        assert_eq!(ready_seqs(&rs), [1, 2], "no consumer, no change");
        rs.debug_check();
    }

    #[test]
    fn two_operands_on_one_producer_enter_the_ready_list_once() {
        let mut rs = ReservationStation::new(4);
        rs.insert(entry(
            5,
            FuClass::IntAlu,
            vec![Operand::Waiting(3), Operand::Waiting(3)],
        ));
        rs.debug_check();
        rs.wake(3, 8);
        assert_eq!(ready_seqs(&rs), [5]);
        let e = rs.iter().next().unwrap();
        assert!(e.operands.iter().all(|o| o.value() == Some(8)));
        rs.debug_check();
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
        let slots: Vec<usize> = (0..3)
            .map(|s| rs.insert(entry(s, FuClass::IntAlu, vec![])))
            .collect();
        rs.issue(slots[0], false);
        assert_eq!(rs.occupancy(), 2, "a plain issue frees the slot");
        assert_eq!(ready_seqs(&rs), [1, 2]);
        // Under the hold-resources defense the slot is kept, and an issued
        // entry no longer reserves its unit for strict age priority.
        rs.issue(slots[2], true);
        assert_eq!(rs.occupancy(), 2);
        assert!(rs.get(slots[2]).issued);
        assert_eq!(ready_seqs(&rs), [1]);
        assert!(rs.older_unissued_for(FuClass::IntAlu, 2));
        assert!(!rs.older_unissued_for(FuClass::IntAlu, 1));
        // The surviving entry keeps its slot handle; a freed slot is reused.
        assert_eq!(rs.get(slots[1]).seq, 1);
        assert_eq!(rs.insert(entry(3, FuClass::IntAlu, vec![])), slots[0]);
        rs.debug_check();
    }

    #[test]
    fn release_frees_a_held_slot() {
        let mut rs = ReservationStation::new(2);
        let slot = rs.insert(entry(0, FuClass::FpSqrt, vec![]));
        rs.insert(entry(1, FuClass::FpSqrt, vec![]));
        rs.issue(slot, true);
        assert!(rs.is_full(), "held entries occupy capacity");
        rs.release(0);
        assert_eq!(rs.occupancy(), 1);
        assert!(!rs.is_full());
        assert_eq!(ready_seqs(&rs), [1]);
        rs.debug_check();
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
    fn squash_frees_slots_and_drops_their_ready_and_waiter_records() {
        let mut rs = ReservationStation::new(4);
        rs.insert(entry(1, FuClass::IntAlu, vec![Operand::Waiting(0)]));
        rs.insert(entry(2, FuClass::IntAlu, vec![]));
        rs.insert(entry(3, FuClass::IntAlu, vec![Operand::Waiting(0)]));
        rs.insert(entry(4, FuClass::IntAlu, vec![Operand::Waiting(1)]));
        assert!(rs.is_full());
        rs.squash_after(2);
        assert_eq!(rs.occupancy(), 2);
        assert_eq!(ready_seqs(&rs), [2]);
        rs.debug_check();
        // Only the surviving consumer of 0 wakes; the squashed one is gone.
        rs.wake(0, 7);
        assert_eq!(ready_seqs(&rs), [1, 2]);
        // Both freed slots are usable again.
        rs.insert(entry(5, FuClass::IntAlu, vec![]));
        rs.insert(entry(6, FuClass::IntAlu, vec![]));
        assert!(rs.is_full());
        rs.debug_check();
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
