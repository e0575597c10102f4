//! The reorder buffer and register-alias table.

use std::collections::VecDeque;

use si_isa::{Instruction, Opcode, NUM_REGS};

use crate::scheme::{SafeAction, SafetyFlags, SafetyView};

/// A rename tag: either a committed value or a reference to the in-flight
/// producer's sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegTag {
    /// The architectural value is known.
    Value(u64),
    /// The youngest writer is the in-flight instruction `seq`.
    Rob(u64),
}

/// The register-alias table: one [`RegTag`] per architectural register.
/// A plain array, so a branch's checkpoint is a copy, not an allocation.
pub type Rat = [RegTag; NUM_REGS];

/// Creates a RAT with every register holding value 0.
pub fn fresh_rat() -> Rat {
    [RegTag::Value(0); NUM_REGS]
}

/// Execution status of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// In the reservation station, waiting to issue.
    Waiting,
    /// Issued; executing or waiting on memory.
    Issued,
    /// Result (if any) produced; retirable once it reaches the head.
    Done,
}

/// One reorder-buffer entry.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Global, monotonically increasing sequence number (the instruction's
    /// age — the scheduler's priority key).
    pub seq: u64,
    /// Fetch address.
    pub pc: u64,
    /// The instruction.
    pub instr: Instruction,
    /// Execution status.
    pub state: EntryState,
    /// Destination value, once produced.
    pub result: Option<u64>,
    /// Effective address (memory ops), once generated.
    pub addr: Option<u64>,
    /// Value to store (stores), captured at issue.
    pub store_value: Option<u64>,
    /// Predicted next PC (branches; fallthrough when predicted not-taken).
    pub predicted_next: u64,
    /// Whether the branch has resolved.
    pub resolved: bool,
    /// Actual next PC after resolution.
    pub actual_next: u64,
    /// Whether the branch resolved against its prediction.
    pub mispredicted: bool,
    /// Whether the squash for this mispredict was already performed.
    pub squash_handled: bool,
    /// Deferred cache-state action for an invisibly executed load.
    pub pending_safe_action: Option<SafeAction>,
    /// Load currently parked by a `Delay` plan.
    pub delayed: bool,
    /// LLC line this (speculative) load filled visibly — CleanupSpec's
    /// undo record.
    pub spec_fill_line: Option<u64>,
    /// Cycle dispatched (diagnostics).
    pub dispatched_at: u64,
    /// Cycle issued (diagnostics).
    pub issued_at: Option<u64>,
    /// Cycle completed (diagnostics).
    pub completed_at: Option<u64>,
}

impl RobEntry {
    /// Creates a freshly dispatched entry.
    pub fn new(seq: u64, pc: u64, instr: Instruction, cycle: u64) -> RobEntry {
        RobEntry {
            seq,
            pc,
            instr,
            state: EntryState::Waiting,
            result: None,
            addr: None,
            store_value: None,
            predicted_next: 0,
            resolved: false,
            actual_next: 0,
            mispredicted: false,
            squash_handled: false,
            pending_safe_action: None,
            delayed: false,
            spec_fill_line: None,
            dispatched_at: cycle,
            issued_at: None,
            completed_at: None,
        }
    }

    /// Whether this is a conditional branch.
    pub fn is_branch(&self) -> bool {
        self.instr.opcode == Opcode::Branch
    }

    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        self.instr.opcode == Opcode::Load
    }

    /// Whether this is a store or flush (address-producing, retire-acting).
    pub fn is_store_like(&self) -> bool {
        matches!(self.instr.opcode, Opcode::Store | Opcode::Flush)
    }

    /// Whether a cache action waits on this entry becoming safe: a load
    /// parked by a `Delay` plan, or an invisible load's deferred action.
    pub(crate) fn deferred(&self) -> bool {
        self.delayed || self.pending_safe_action.is_some()
    }

    /// The facts the shadow models read off this entry. Each flag, once
    /// clear, stays clear for as long as the entry is in flight: branches
    /// only resolve, loads and stores only complete, and a fence keeps its
    /// flag until it retires.
    pub(crate) fn safety_flags(&self) -> SafetyFlags {
        SafetyFlags {
            unresolved_branch: self.is_branch() && !self.resolved,
            load_incomplete: self.is_load() && self.state != EntryState::Done,
            store_addr_unknown: self.is_store_like() && self.state != EntryState::Done,
            fence: self.instr.opcode == Opcode::Fence,
        }
    }
}

/// The reorder buffer: a bounded, age-ordered queue of in-flight
/// instructions.
///
/// It also keeps the [`SafetyView`] summary up to date without rescanning:
/// one sequence-number cursor per shadow kind ([`SafetyFlags`] field), with
/// the invariant that no entry older than the cursor carries that flag.
/// The cursors only ever move forward, which is sound because a flag only
/// clears on its own entry (`RobEntry::safety_flags`), entries leave only
/// at the head (retire) or the tail (squash), and every dispatched entry
/// is younger than every sequence number handed out before it. A squash
/// may leave a cursor past the tail; the next dispatch lands at or beyond
/// it.
#[derive(Debug, Clone, Default)]
pub struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    /// One cursor per shadow kind, in [`SafetyView`] field order.
    cursors: [u64; 4],
}

impl Rob {
    /// Creates an empty ROB with the given capacity.
    pub fn new(capacity: usize) -> Rob {
        Rob {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            cursors: [0; 4],
        }
    }

    /// Number of in-flight entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ROB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether dispatch must stall.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Appends a dispatched entry.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full or `entry.seq` is not monotonically
    /// increasing.
    pub fn push(&mut self, entry: RobEntry) {
        assert!(!self.is_full(), "ROB overflow");
        if let Some(back) = self.entries.back() {
            assert!(back.seq < entry.seq, "ROB sequence must increase");
        }
        self.entries.push_back(entry);
    }

    /// The oldest entry, if any.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Removes and returns the oldest entry.
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        self.entries.pop_front()
    }

    /// Looks up an entry by sequence number.
    pub fn get(&self, seq: u64) -> Option<&RobEntry> {
        self.position(seq).map(|i| &self.entries[i])
    }

    /// Mutable lookup by sequence number.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        self.position(seq).map(move |i| &mut self.entries[i])
    }

    /// Position of `seq` from the head (0 = oldest).
    pub fn position(&self, seq: u64) -> Option<usize> {
        let (head, tail) = (self.entries.front()?.seq, self.entries.back()?.seq);
        if !(head..=tail).contains(&seq) {
            return None;
        }
        // Sequence numbers are dense except where a squash left a gap, so
        // the distance from the head, or else from the tail, is usually
        // the position; only an entry with gaps on both sides needs the
        // search.
        let from_head = (seq - head) as usize;
        if self.entries.get(from_head).is_some_and(|e| e.seq == seq) {
            return Some(from_head);
        }
        let from_tail = (self.entries.len() - 1).checked_sub((tail - seq) as usize);
        if let Some(pos) = from_tail.filter(|&pos| self.entries[pos].seq == seq) {
            return Some(pos);
        }
        self.entries.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    /// The entry at position `pos` (0 = oldest).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    pub(crate) fn at(&self, pos: usize) -> &RobEntry {
        &self.entries[pos]
    }

    /// Mutable access to the entry at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    pub(crate) fn at_mut(&mut self, pos: usize) -> &mut RobEntry {
        &mut self.entries[pos]
    }

    /// The safety summary of the entries now in flight: the position of
    /// the oldest entry carrying each shadow flag. Each cursor resumes
    /// where the last call left it, so the cost is a position lookup per
    /// kind plus the entries the cursors pass, each passed once.
    pub(crate) fn safety_view(&mut self) -> SafetyView {
        let view = SafetyView {
            unresolved_branch: self.settle(0, |f| f.unresolved_branch),
            load_incomplete: self.settle(1, |f| f.load_incomplete),
            store_addr_unknown: self.settle(2, |f| f.store_addr_unknown),
            fence: self.settle(3, |f| f.fence),
        };
        debug_assert_eq!(
            view,
            SafetyView::new(self.entries.iter().map(RobEntry::safety_flags).collect()),
            "cursor-kept safety view differs from a full rebuild"
        );
        view
    }

    /// Moves cursor `kind` forward to the oldest entry whose flag is set
    /// and returns that entry's position, or parks the cursor just past
    /// the tail and returns `usize::MAX`.
    fn settle(&mut self, kind: usize, flagged: impl Fn(SafetyFlags) -> bool) -> usize {
        let cursor = self.cursors[kind];
        let start = self
            .position(cursor)
            .unwrap_or_else(|| self.entries.partition_point(|e| e.seq < cursor));
        match self
            .entries
            .range(start..)
            .position(|e| flagged(e.safety_flags()))
        {
            Some(offset) => {
                self.cursors[kind] = self.entries[start + offset].seq;
                start + offset
            }
            None => {
                if let Some(tail) = self.entries.back() {
                    self.cursors[kind] = cursor.max(tail.seq + 1);
                }
                usize::MAX
            }
        }
    }

    /// Iterates entries oldest-to-youngest.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, RobEntry> {
        self.entries.iter()
    }

    /// Mutable iteration oldest-to-youngest.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut RobEntry> {
        self.entries.iter_mut()
    }

    /// Removes every entry younger than `branch_seq` and returns them
    /// (oldest first) — the squash path.
    pub fn squash_after(&mut self, branch_seq: u64) -> Vec<RobEntry> {
        let keep = self
            .entries
            .iter()
            .take_while(|e| e.seq <= branch_seq)
            .count();
        self.entries.split_off(keep).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_isa::{Instruction, R1, R2, R3};

    fn entry(seq: u64) -> RobEntry {
        RobEntry::new(seq, seq * 8, Instruction::add(R3, R1, R2), 0)
    }

    #[test]
    fn push_pop_fifo_order() {
        let mut rob = Rob::new(4);
        rob.push(entry(0));
        rob.push(entry(1));
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.pop_head().unwrap().seq, 0);
        assert_eq!(rob.head().unwrap().seq, 1);
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        rob.push(entry(0));
        rob.push(entry(1));
    }

    #[test]
    #[should_panic(expected = "sequence must increase")]
    fn non_monotonic_seq_panics() {
        let mut rob = Rob::new(4);
        rob.push(entry(5));
        rob.push(entry(3));
    }

    #[test]
    fn lookup_by_seq_after_retirement() {
        let mut rob = Rob::new(8);
        for s in 0..5 {
            rob.push(entry(s));
        }
        rob.pop_head();
        rob.pop_head();
        assert!(rob.get(1).is_none());
        assert_eq!(rob.get(3).unwrap().seq, 3);
        assert_eq!(rob.position(2), Some(0));
    }

    #[test]
    fn position_finds_entries_between_squash_gaps() {
        let mut rob = Rob::new(16);
        // Seqs 0..3, a gap, 10..13, a gap, 20..23: every entry but the
        // first run and the last sits past a gap on the head side.
        for s in (0..3).chain(10..13).chain(20..23) {
            rob.push(entry(s));
        }
        for (pos, e) in rob.iter().enumerate() {
            assert_eq!(rob.position(e.seq), Some(pos), "seq {}", e.seq);
        }
        for missing in [3, 9, 13, 19, 23, 100] {
            assert_eq!(rob.position(missing), None, "seq {missing}");
        }
        rob.pop_head();
        assert_eq!(rob.position(0), None, "retired");
        assert_eq!(rob.position(11), Some(3));
    }

    #[test]
    fn safety_cursors_advance_across_retire_squash_and_dispatch() {
        let load = |seq| RobEntry::new(seq, seq * 8, Instruction::load(R1, R2, 0), 0);
        let branch = |seq| {
            let beq = Instruction::branch(si_isa::BranchCond::Eq, R1, R2, 0);
            RobEntry::new(seq, seq * 8, beq, 0)
        };
        let mut rob = Rob::new(8);
        rob.push(entry(0));
        rob.push(load(1));
        rob.push(branch(2));
        rob.push(load(3));
        let v = rob.safety_view();
        assert_eq!((v.load_incomplete, v.unresolved_branch), (1, 2));
        assert_eq!(rob.cursors[1], 1, "load cursor stops at the oldest load");
        // The oldest load completes and retires: the cursor moves on to the
        // next incomplete load, whose position is relative to the new head.
        rob.get_mut(1).unwrap().state = EntryState::Done;
        rob.pop_head();
        rob.pop_head();
        let v = rob.safety_view();
        assert_eq!((v.load_incomplete, v.unresolved_branch), (1, 0));
        assert_eq!(rob.cursors[1], 3);
        // The branch resolves and squashes load 3: both cursors are left
        // past the tail, never moved back.
        rob.get_mut(2).unwrap().resolved = true;
        assert_eq!(rob.squash_after(2).len(), 1);
        let v = rob.safety_view();
        assert_eq!(
            (v.load_incomplete, v.unresolved_branch),
            (usize::MAX, usize::MAX)
        );
        assert_eq!(rob.cursors[..2], [3, 3]);
        // Later dispatches take fresh, larger seqs, so they land at or past
        // every cursor and are seen.
        rob.push(entry(7));
        rob.push(load(8));
        rob.push(branch(9));
        let v = rob.safety_view();
        assert_eq!((v.load_incomplete, v.unresolved_branch), (2, 3));
        assert_eq!(rob.cursors[..2], [9, 8]);
        assert_eq!(v.store_addr_unknown, usize::MAX);
        assert_eq!(v.fence, usize::MAX);
    }

    #[test]
    fn squash_removes_strictly_younger() {
        let mut rob = Rob::new(8);
        for s in 0..6 {
            rob.push(entry(s));
        }
        let squashed = rob.squash_after(2);
        assert_eq!(squashed.len(), 3);
        assert_eq!(squashed[0].seq, 3);
        assert_eq!(rob.len(), 3);
        assert_eq!(rob.iter().last().unwrap().seq, 2);
    }

    #[test]
    fn squash_with_no_younger_is_empty() {
        let mut rob = Rob::new(4);
        rob.push(entry(0));
        assert!(rob.squash_after(0).is_empty());
        assert_eq!(rob.len(), 1);
    }

    #[test]
    fn entry_classification() {
        let load = RobEntry::new(0, 0, Instruction::load(R1, R2, 0), 0);
        assert!(load.is_load() && !load.is_branch() && !load.is_store_like());
        let st = RobEntry::new(1, 8, Instruction::store(R1, R2, 0), 0);
        assert!(st.is_store_like());
        let fl = RobEntry::new(2, 16, Instruction::flush(R2, 0), 0);
        assert!(fl.is_store_like());
    }
}
