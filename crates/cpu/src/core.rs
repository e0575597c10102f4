//! The out-of-order core: one cycle at a time.
//!
//! Pipeline phases run in a fixed order each cycle (completions, retire,
//! issue, load-store processing, writeback, squash, safe-promotion,
//! dispatch, fetch). Two ordering choices are load-bearing for the paper's
//! attacks:
//!
//! * **Issue runs before writeback**, so an operand woken this cycle can
//!   issue only next cycle. This models the wakeup/select gap that lets a
//!   ready mis-speculated instruction slip into a non-pipelined unit in the
//!   window where an older instruction's operand is still in flight — the
//!   cascading delay of `G^D_NPEU` (§3.2.2, Figure 3: "once f1 completes,
//!   f2 does not immediately become ready, due to f1's writeback delay; in
//!   contrast f'2 ... is already ready and so is issued").
//! * **Issue selection is age-ordered** among ready candidates, so the
//!   interference is a *delay*, not a starvation — exactly the paper's
//!   alternating `f'1, f1, f'2, f2, ...` interleaving.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;

use si_cache::{line_of, AccessClass, Hierarchy, HitLevel, Visibility};
use si_isa::{isqrt, FuClass, Instruction, Memory, Opcode, Program, Reg, INSTR_BYTES, NUM_REGS};

use crate::config::CoreConfig;
use crate::exec::{ExecPayload, ExecUnits, InFlight};
use crate::frontend::{FetchOutcome, Frontend, FrontendQuiet};
use crate::predictor::Predictor;
use crate::rob::{fresh_rat, EntryState, Rat, RegTag, Rob, RobEntry};
use crate::rs::{Operand, ReservationStation, RsEntry};
use crate::scheme::{LoadPlan, SafeAction, SafetyView, SpeculationScheme, UnsafeLoadCtx};
use crate::stats::CoreStats;
use crate::trace::{Trace, TraceEvent};
use crate::MshrFile;

/// Shared machine state a core needs during its tick.
#[derive(Debug)]
pub struct TickCtx<'a> {
    /// The shared cache hierarchy.
    pub hierarchy: &'a mut Hierarchy,
    /// The shared backing memory.
    pub memory: &'a mut Memory,
    /// Maximum extra cycles on DRAM-level accesses (0 disables jitter).
    pub dram_jitter: u64,
    /// Seeded RNG for jitter (owned by the machine).
    pub rng: &'a mut StdRng,
}

#[derive(Debug, Clone, Copy)]
struct LoadCompletion {
    seq: u64,
    done_at: u64,
    value: u64,
}

/// A single out-of-order core.
///
/// Construct via [`Core::new`], then drive with [`Core::tick`] (normally
/// through [`Machine`](crate::Machine)). Architectural state is readable
/// with [`Core::reg`] once [`Core::halted`].
#[derive(Debug)]
pub struct Core {
    id: usize,
    config: CoreConfig,
    /// Shared, immutable program image: cores only read it (fetch), so
    /// clones — including every checkpoint fork — share one copy.
    program: std::sync::Arc<Program>,
    frontend: Frontend,
    predictor: Predictor,
    rob: Rob,
    rs: ReservationStation,
    exec: ExecUnits,
    rat: Rat,
    /// RAT snapshots `(branch seq, RAT)` taken as each branch dispatched,
    /// oldest first: one per in-flight branch whose squash has not been
    /// handled. The ring keeps its capacity, so a branch copies the RAT
    /// without allocating.
    rat_checkpoints: VecDeque<(u64, Rat)>,
    arch_regs: [u64; NUM_REGS],
    mshrs: MshrFile,
    pending_loads: Vec<u64>,
    load_completions: Vec<LoadCompletion>,
    /// `(cycle, line)` of I-fetch fills recorded while the active scheme
    /// protects the I-cache; rolled back on squash.
    spec_ifetch_fills: Vec<(u64, u64)>,
    wb_queue: Vec<(u64, ExecPayload)>,
    scheme: Box<dyn SpeculationScheme>,
    halted: bool,
    /// Set by writeback when a branch resolves mispredicted; the squash
    /// later in the same cycle clears it, so it is never set between
    /// ticks.
    squash_pending: bool,
    next_seq: u64,
    stats: CoreStats,
    trace: Trace,
    /// ROB entries for which [`RobEntry::deferred`] holds, kept as those
    /// flags change so safe promotion and the idle-skip proof need no ROB
    /// scan while nothing is deferred.
    deferred: usize,
    /// Reused allocation for the issue stage's copy of the RS ready list
    /// `(seq, slot)`.
    issue_scratch: Vec<(u64, usize)>,
    /// Reused allocation for the completion sweep.
    done_scratch: Vec<InFlight>,
}

impl Clone for Core {
    /// Deep-copies the core, including the scheme's private state via
    /// [`SpeculationScheme::boxed_clone`] — the field that keeps `Clone`
    /// from being derivable. Machine checkpointing relies on this being a
    /// complete copy: any field omitted here would leak state between
    /// forked trials. The program image is the one exception — it is
    /// immutable and shared, so the clone bumps its `Arc` instead of
    /// copying it.
    fn clone(&self) -> Core {
        Core {
            id: self.id,
            config: self.config.clone(),
            program: self.program.clone(),
            frontend: self.frontend.clone(),
            predictor: self.predictor.clone(),
            rob: self.rob.clone(),
            rs: self.rs.clone(),
            exec: self.exec.clone(),
            rat: self.rat,
            rat_checkpoints: self.rat_checkpoints.clone(),
            arch_regs: self.arch_regs,
            mshrs: self.mshrs.clone(),
            pending_loads: self.pending_loads.clone(),
            load_completions: self.load_completions.clone(),
            spec_ifetch_fills: self.spec_ifetch_fills.clone(),
            wb_queue: self.wb_queue.clone(),
            scheme: self.scheme.boxed_clone(),
            halted: self.halted,
            squash_pending: self.squash_pending,
            next_seq: self.next_seq,
            stats: self.stats,
            trace: self.trace.clone(),
            deferred: self.deferred,
            issue_scratch: self.issue_scratch.clone(),
            done_scratch: self.done_scratch.clone(),
        }
    }
}

/// A proof that ticking the core would be a pure stall for every cycle in
/// `[now, until)`, carrying the per-cycle stall accounting the skipped
/// ticks would have performed. Produced by [`Core::quiet_plan`]; replayed
/// exactly by [`Core::apply_quiet_cycles`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuietPlan {
    /// First cycle at which the core may act again (`u64::MAX` when only
    /// external input could wake it).
    pub(crate) until: u64,
    icache_stall: bool,
    queue_stall: bool,
    rob_stall: bool,
    rs_stall: bool,
}

impl Core {
    /// Creates a core that will run `program` under `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(
        id: usize,
        config: CoreConfig,
        program: Program,
        scheme: Box<dyn SpeculationScheme>,
    ) -> Core {
        let entry = program.entry();
        Core::new_shared(id, config, std::sync::Arc::new(program), scheme, entry)
    }

    /// Creates a core over a **shared** program image, starting fetch at
    /// `entry` instead of the program's recorded entry point.
    ///
    /// Sampled trace replay builds one machine per representative
    /// interval from the same program; sharing the image and overriding
    /// the entry PC replaces a per-interval deep clone (and a mutated
    /// `set_entry`) with an `Arc` bump. `Core::new` is the
    /// `entry == program.entry()` special case.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new_shared(
        id: usize,
        config: CoreConfig,
        program: std::sync::Arc<Program>,
        scheme: Box<dyn SpeculationScheme>,
        entry: u64,
    ) -> Core {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid core config: {e}"));
        let frontend = if config.no_speculation {
            Frontend::new_no_speculation(entry, config.decode_queue, config.fetch_width)
        } else {
            Frontend::new(entry, config.decode_queue, config.fetch_width)
        };
        Core {
            id,
            frontend,
            predictor: Predictor::new(config.predictor_kind, config.predictor_entries),
            rob: Rob::new(config.rob_size),
            rs: ReservationStation::new(config.rs_size),
            exec: ExecUnits::new(&config.fu),
            rat: fresh_rat(),
            rat_checkpoints: VecDeque::new(),
            arch_regs: [0; NUM_REGS],
            mshrs: MshrFile::new(config.mshrs),
            pending_loads: Vec::new(),
            load_completions: Vec::new(),
            spec_ifetch_fills: Vec::new(),
            wb_queue: Vec::new(),
            scheme,
            halted: false,
            squash_pending: false,
            next_seq: 0,
            stats: CoreStats::default(),
            trace: Trace::new(),
            deferred: 0,
            issue_scratch: Vec::new(),
            done_scratch: Vec::new(),
            program,
            config,
        }
    }

    /// This core's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether `Halt` has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Committed architectural register value.
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.arch_regs[r.index()]
        }
    }

    /// Injects a committed architectural register value (writes to `r0`
    /// are discarded). Trace replay uses this to seed a freshly built
    /// core with the functional state at a sampled interval's start;
    /// calling it mid-execution on in-flight state is not meaningful.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.arch_regs[r.index()] = v;
            // A fresh core's RAT caches committed values directly;
            // keep it coherent so renamed operands see the injection.
            self.rat[r.index()] = RegTag::Value(v);
        }
    }

    /// Pre-trains the branch predictor on a resolved outcome without
    /// issuing a prediction — trace replay uses this to warm the
    /// predictor from recorded history before simulating a sample
    /// interval. Does not count as a prediction or misprediction in
    /// [`predictor_stats`](Core::predictor_stats).
    pub fn train_branch(&mut self, pc: u64, taken: bool, target: u64) {
        self.predictor.update(pc, taken, target, false);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// The pipeline trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Enables or disables pipeline tracing.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// The active speculation scheme's name.
    pub fn scheme_name(&self) -> String {
        self.scheme.name()
    }

    /// Current reorder-buffer occupancy.
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Current reservation-station occupancy.
    pub fn rs_occupancy(&self) -> usize {
        self.rs.occupancy()
    }

    /// Branch predictor statistics `(predictions, mispredictions)`.
    pub fn predictor_stats(&self) -> (u64, u64) {
        self.predictor.stats()
    }

    /// Private (L1D) MSHRs currently in flight — the occupancy the
    /// `G^D_MSHR` gadget drives to capacity.
    pub fn mshr_in_flight(&self) -> usize {
        self.mshrs.in_flight()
    }

    /// Peak simultaneous private-MSHR occupancy observed.
    pub fn mshr_high_water(&self) -> usize {
        self.mshrs.high_water()
    }

    /// Lifetime issue count per execution port (index = port number) —
    /// the contention profile a port-pressure transmitter skews.
    pub fn port_issues(&self) -> &[u64] {
        self.exec.issues_per_port()
    }

    /// Advances the core by one cycle.
    pub fn tick(&mut self, now: u64, ctx: &mut TickCtx<'_>) {
        if self.halted {
            return;
        }
        self.stats.cycles += 1;
        self.exec.begin_cycle();
        debug_assert!(
            self.rat_checkpoints.iter().map(|&(seq, _)| seq).eq(self
                .rob
                .iter()
                .filter(|e| e.is_branch() && !e.squash_handled)
                .map(|e| e.seq)),
            "RAT checkpoints differ from the unsquashed branches in the ROB"
        );
        debug_assert_eq!(
            self.deferred,
            self.rob.iter().filter(|e| e.deferred()).count(),
            "deferred count differs from a recount over the ROB"
        );
        self.rs.debug_check();

        self.collect_completions(now);
        self.retire(now, ctx);
        if self.halted {
            return;
        }
        // Issue and the LSU change no safety flag (they only move entries
        // from waiting to issued), so one summary serves both.
        let view = self.rob.safety_view();
        self.issue(now, &view);
        self.process_loads(now, ctx, &view);
        self.writeback(now);
        self.handle_squash(now, ctx);
        self.promote_safe(now, ctx);
        self.dispatch(now);
        self.fetch(now, ctx);
    }

    // ------------------------------------------------------------------
    // Idle-cycle skipping
    // ------------------------------------------------------------------

    /// Proves (conservatively) that ticking this core at `now` — and at
    /// every later cycle before the returned plan's `until` — would be a
    /// pure stall: no pipeline phase would mutate core, cache, or memory
    /// state, and the only per-cycle effects are the stall counters and
    /// stall trace events captured in the plan. Returns `None` whenever any
    /// phase might act, in which case the machine must tick cycle-by-cycle.
    ///
    /// The proof works because a quiet core can only be re-activated by a
    /// *timed* internal event (an execution-unit completion, a load
    /// completion, or the end of an I-fetch stall) — everything else in the
    /// pipeline is demand-driven off those events. `until` is the earliest
    /// such event; the machine additionally bounds the skip by scheduled
    /// agent ops and background-noise cycles, which are the only external
    /// inputs.
    ///
    /// Takes `&mut self` only to settle the ROB's safety-summary cursors
    /// ([`Rob::safety_view`]), which changes no observable state.
    pub(crate) fn quiet_plan(&mut self, now: u64) -> Option<QuietPlan> {
        let mut plan = QuietPlan {
            until: u64::MAX,
            icache_stall: false,
            queue_stall: false,
            rob_stall: false,
            rs_stall: false,
        };
        if self.halted {
            return Some(plan); // a halted tick is a no-op, forever
        }
        // O(1) rejections first — on busy cycles this function runs once
        // per cycle, so the common path must not rescan the ROB/RS.
        //
        // Phase 5 (writeback) acts on anything queued.
        if !self.wb_queue.is_empty() {
            return None;
        }
        // Phase 2 (retire) acts once the head is done.
        if self.rob.head().is_some_and(|h| h.state == EntryState::Done) {
            return None;
        }
        // Phase 9 (fetch): stopped is silent; stalls are replayable
        // per-cycle counters (+ trace events); anything else fetches.
        match self.frontend.quiet_state(now) {
            FrontendQuiet::Stopped => {}
            FrontendQuiet::Stalled => {
                plan.icache_stall = true;
                plan.until = plan.until.min(self.frontend.stall_deadline());
            }
            FrontendQuiet::QueueFull => plan.queue_stall = true,
            FrontendQuiet::Active => return None,
        }
        // Phase 8 (dispatch): either nothing is queued, or the stall is a
        // per-cycle counter we can replay.
        if let Some(next) = self.frontend.peek() {
            if self.rob.is_full() {
                plan.rob_stall = true;
            } else if next.instr.opcode.fu_class() != FuClass::None && self.rs.is_full() {
                plan.rs_stall = true;
            } else {
                return None; // would dispatch
            }
        }
        // Phase 1 (completions): due events force a tick; pending ones
        // bound the skip.
        if let Some(t) = self.exec.next_done_at() {
            if t <= now {
                return None;
            }
            plan.until = plan.until.min(t);
        }
        for c in &self.load_completions {
            if c.done_at <= now {
                return None;
            }
            plan.until = plan.until.min(c.done_at);
        }
        // Phase 3 (issue): any ready candidate may issue — or, under a
        // defense, accrue per-cycle issue-stall counters — so tick.
        if !self.rs.ready().is_empty() {
            return None;
        }
        // Phase 4 (LSU): non-delayed pending loads retry (and may count
        // MSHR stalls) every cycle; delayed loads park silently.
        for seq in &self.pending_loads {
            if self.rob.get(*seq).is_some_and(|e| !e.delayed) {
                return None;
            }
        }
        // Phase 6 (squash) acts on an unhandled resolved mispredict, and
        // writeback's squash runs in the same tick, so none is left over.
        debug_assert!(!self.squash_pending, "squash left pending past its tick");
        // Phase 7 (safe promotion) acts iff a deferred load is safe now.
        // Safety can only change through events (which bound the skip), so
        // checking once covers the whole window.
        if self.deferred > 0 {
            let view = self.rob.safety_view();
            for (pos, e) in self.rob.iter().enumerate() {
                let actionable =
                    e.delayed || (e.pending_safe_action.is_some() && e.state == EntryState::Done);
                if actionable && self.scheme.is_safe(&view, pos) {
                    return None;
                }
            }
        }
        debug_assert!(plan.until > now);
        Some(plan)
    }

    /// Replays the per-cycle effects of `count` skipped quiet cycles
    /// starting at `from`, exactly as `count` calls to [`Core::tick`]
    /// would have under `plan`'s conditions.
    pub(crate) fn apply_quiet_cycles(&mut self, from: u64, count: u64, plan: &QuietPlan) {
        if self.halted || count == 0 {
            return;
        }
        self.stats.cycles += count;
        if plan.icache_stall {
            self.stats.fetch_stall_icache += count;
            if self.trace.enabled() {
                for cycle in from..from + count {
                    self.trace.record(
                        cycle,
                        TraceEvent::FetchStall {
                            reason: crate::trace::StallReason::ICacheMiss,
                        },
                    );
                }
            }
        } else if plan.queue_stall {
            self.stats.fetch_stall_queue += count;
            if self.trace.enabled() {
                for cycle in from..from + count {
                    self.trace.record(
                        cycle,
                        TraceEvent::FetchStall {
                            reason: crate::trace::StallReason::QueueFull,
                        },
                    );
                }
            }
        }
        if plan.rob_stall {
            self.stats.rob_full_stalls += count;
        } else if plan.rs_stall {
            self.stats.rs_full_stalls += count;
        }
    }

    // ------------------------------------------------------------------
    // Phase 1: completions
    // ------------------------------------------------------------------

    fn collect_completions(&mut self, now: u64) {
        let hold = self.scheme.holds_resources_until_safe();
        let mut done = std::mem::take(&mut self.done_scratch);
        self.exec.drain_done_into(now, &mut done);
        if hold && !done.is_empty() {
            let view = self.rob.safety_view();
            for op in done.drain(..) {
                if op.non_pipelined && !self.op_is_safe(&view, op.seq) {
                    // §5.4 rule 1: the unit (and the result) are held while
                    // the occupant is speculative.
                    self.exec.hold_port(op.port, now + 1);
                    self.requeue_inflight(op, now + 1);
                } else {
                    self.wb_queue.push((op.seq, op.payload));
                }
            }
        } else {
            for op in done.drain(..) {
                self.wb_queue.push((op.seq, op.payload));
            }
        }
        self.done_scratch = done;
        self.mshrs.drain_ready(now);
        let mut i = 0;
        while i < self.load_completions.len() {
            if self.load_completions[i].done_at <= now {
                let c = self.load_completions.swap_remove(i);
                self.wb_queue.push((c.seq, ExecPayload::Value(c.value)));
            } else {
                i += 1;
            }
        }
    }

    fn op_is_safe(&self, view: &SafetyView, seq: u64) -> bool {
        match self.rob.position(seq) {
            Some(pos) => self.scheme.is_safe(view, pos),
            None => true, // squashed or retired: nothing to protect
        }
    }

    fn requeue_inflight(&mut self, op: InFlight, done_at: u64) {
        // Re-inject with a later completion; implemented by re-issuing the
        // payload through the load-completion queue to keep exec simple.
        match op.payload {
            ExecPayload::Value(v) => self.load_completions.push(LoadCompletion {
                seq: op.seq,
                done_at,
                value: v,
            }),
            other => {
                // Non-value payloads from non-pipelined units do not exist
                // (sqrt/div produce values), but stay conservative.
                self.wb_queue.push((op.seq, other));
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: retire
    // ------------------------------------------------------------------

    fn retire(&mut self, now: u64, ctx: &mut TickCtx<'_>) {
        for _ in 0..self.config.retire_width {
            let Some(head) = self.rob.head() else { return };
            if head.state != EntryState::Done {
                return;
            }
            if head.mispredicted && !head.squash_handled {
                return; // squash first (later this cycle), retire next cycle
            }
            let mut entry = self.rob.pop_head().expect("head exists");
            if entry.deferred() {
                self.deferred -= 1;
            }
            // Apply any deferred cache action that never found an earlier
            // safe point (at the head everything is safe).
            if let Some(action) = entry.pending_safe_action.take() {
                self.apply_safe_action(now, ctx, entry.addr, action);
            }
            // A retiring branch takes its RAT checkpoint along, unless its
            // own squash already spent it.
            if self
                .rat_checkpoints
                .front()
                .is_some_and(|&(seq, _)| seq == entry.seq)
            {
                self.rat_checkpoints.pop_front();
            }
            match entry.instr.opcode {
                Opcode::Store => {
                    let addr = entry.addr.expect("store address known at retire");
                    let value = entry.store_value.expect("store value known at retire");
                    ctx.memory.write_u64(addr, value);
                    ctx.hierarchy.write(now, self.id, addr);
                }
                Opcode::Flush => {
                    let addr = entry.addr.expect("flush address known at retire");
                    ctx.hierarchy.flush_addr(addr);
                }
                Opcode::Halt => {
                    self.halted = true;
                }
                _ => {}
            }
            if let (Some(dst), Some(result)) = (entry.instr.writes(), entry.result) {
                self.arch_regs[dst.index()] = result;
                if self.rat[dst.index()] == RegTag::Rob(entry.seq) {
                    self.rat[dst.index()] = RegTag::Value(result);
                }
                // Stale `Rob(seq)` references in outstanding branch
                // checkpoints are resolved lazily when a checkpoint is
                // restored (see handle_squash) — patching every resident
                // checkpoint here would rescan the ROB per retirement.
            }
            if self.scheme.holds_resources_until_safe() {
                self.rs.release(entry.seq);
            }
            self.stats.retired += 1;
            self.trace.record(
                now,
                TraceEvent::Retire {
                    seq: entry.seq,
                    pc: entry.pc,
                },
            );
            if self.halted {
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 3: issue (age-ordered, before writeback)
    // ------------------------------------------------------------------

    fn issue(&mut self, now: u64, view: &SafetyView) {
        if self.rs.ready().is_empty() {
            return;
        }
        // Issuing removes entries from the ready list, so walk a copy.
        let mut candidates = std::mem::take(&mut self.issue_scratch);
        candidates.clear();
        candidates.extend_from_slice(self.rs.ready());
        let strict_age = self.scheme.strict_age_priority();
        // Under §5.4 rule 1 issued entries keep their slots until retire.
        let hold = self.scheme.holds_resources_until_safe();
        for &(seq, slot) in &candidates {
            let Some(pos) = self.rob.position(seq) else {
                continue;
            };
            if view.fence_blocked(pos) {
                continue;
            }
            if self.scheme.blocks_issue(view, pos) {
                self.stats.defense_issue_stalls += 1;
                continue;
            }
            let class = self.rs.get(slot).fu;
            let timing = self.config.fu.timing(class);
            if strict_age && !timing.pipelined && self.rs.older_unissued_for(class, seq) {
                continue; // §5.4 rule 2: reserve the unit for the older op
            }
            let Some(port) = self.exec.free_port(&self.config.fu, class, now) else {
                self.stats.port_contention_stalls += 1;
                continue;
            };
            let mut operands = [0u64; 2];
            let mut n_operands = 0;
            for o in &self.rs.get(slot).operands {
                operands[n_operands] = o.value().expect("candidate is ready");
                n_operands += 1;
            }
            let entry = self.rob.at(pos);
            let payload = Self::make_payload(&entry.instr, entry.pc, &operands[..n_operands]);
            self.exec
                .issue(&self.config.fu, class, port, seq, now, payload);
            let entry = self.rob.at_mut(pos);
            entry.state = EntryState::Issued;
            entry.issued_at = Some(now);
            self.rs.issue(slot, hold);
            self.stats.issued += 1;
            self.trace.record(now, TraceEvent::Issue { seq, port });
        }
        self.issue_scratch = candidates;
    }

    fn make_payload(instr: &Instruction, pc: u64, ops: &[u64]) -> ExecPayload {
        let s1 = ops.first().copied().unwrap_or(0);
        let s2 = ops.get(1).copied().unwrap_or(0);
        match instr.opcode {
            Opcode::Load => ExecPayload::AddrReady {
                addr: s1.wrapping_add(instr.imm as u64),
            },
            Opcode::Store => ExecPayload::StoreReady {
                addr: s1.wrapping_add(instr.imm as u64),
                value: s2,
            },
            Opcode::Flush => ExecPayload::FlushReady {
                addr: s1.wrapping_add(instr.imm as u64),
            },
            Opcode::Branch => {
                let taken = instr.cond.eval(s1, s2);
                let next_pc = if taken {
                    instr.imm as u64
                } else {
                    pc + INSTR_BYTES
                };
                ExecPayload::BranchResolved { next_pc, taken }
            }
            _ => ExecPayload::Value(Self::compute_alu(instr, s1, s2)),
        }
    }

    /// ALU semantics, kept identical to [`si_isa::Interpreter`] (checked by
    /// the differential property tests in `tests/`).
    fn compute_alu(instr: &Instruction, s1: u64, s2: u64) -> u64 {
        match instr.opcode {
            Opcode::Add => s1.wrapping_add(s2),
            Opcode::Sub => s1.wrapping_sub(s2),
            Opcode::And => s1 & s2,
            Opcode::Or => s1 | s2,
            Opcode::Xor => s1 ^ s2,
            Opcode::Shl => s1.wrapping_shl((s2 & 63) as u32),
            Opcode::Shr => s1.wrapping_shr((s2 & 63) as u32),
            Opcode::AddImm => s1.wrapping_add(instr.imm as u64),
            Opcode::Mul => s1.wrapping_mul(s2),
            Opcode::Sqrt => isqrt(s1),
            Opcode::Div => s1 / s2.max(1),
            other => unreachable!("{other:?} is not an ALU opcode"),
        }
    }

    // ------------------------------------------------------------------
    // Phase 4: load-store unit
    // ------------------------------------------------------------------

    fn process_loads(&mut self, now: u64, ctx: &mut TickCtx<'_>, view: &SafetyView) {
        let mut pending = std::mem::take(&mut self.pending_loads);
        pending.retain(|&seq| self.try_load(now, ctx, view, seq) == LoadStep::Retry);
        self.pending_loads = pending;
    }

    fn try_load(
        &mut self,
        now: u64,
        ctx: &mut TickCtx<'_>,
        view: &SafetyView,
        seq: u64,
    ) -> LoadStep {
        let Some(pos) = self.rob.position(seq) else {
            return LoadStep::Squashed;
        };
        let entry = self.rob.at(pos);
        if entry.delayed {
            return LoadStep::Retry; // waiting to become safe
        }
        let addr = entry.addr.expect("pending load has an address");
        // Store-to-load ordering: wait for older stores' addresses; forward
        // from the youngest older store to the same address.
        if !view.older_store_addrs_known(pos) {
            return LoadStep::Retry;
        }
        let forward = self
            .rob
            .iter()
            .take(pos)
            .rev()
            .find(|e| e.instr.opcode == Opcode::Store && e.addr == Some(addr))
            .and_then(|e| e.store_value);
        if let Some(value) = forward {
            self.load_completions.push(LoadCompletion {
                seq,
                done_at: now + 1,
                value,
            });
            return LoadStep::Done;
        }
        let safe = self.scheme.is_safe(view, pos);
        let level = ctx.hierarchy.probe_level(self.id, addr, AccessClass::Data);
        if safe {
            return self.access_visible(now, ctx, seq, addr, level, false);
        }
        let plan = self.scheme.plan_unsafe_load(&UnsafeLoadCtx {
            core: self.id,
            addr,
            level,
            cycle: now,
        });
        match plan {
            LoadPlan::Visible => self.access_visible(now, ctx, seq, addr, level, true),
            LoadPlan::Invisible {
                on_safe,
                latency_override,
            } => self.access_invisible(now, ctx, seq, addr, level, on_safe, latency_override),
            LoadPlan::Delay => {
                self.rob.at_mut(pos).delayed = true;
                self.deferred += 1;
                self.stats.delayed_loads += 1;
                self.trace
                    .record(now, TraceEvent::LoadDelayed { seq, addr });
                LoadStep::Retry
            }
        }
    }

    fn dram_latency(&self, base: u64, level: HitLevel, ctx: &mut TickCtx<'_>) -> u64 {
        if level == HitLevel::Memory && ctx.dram_jitter > 0 {
            base + ctx.rng.gen_range(0..=ctx.dram_jitter)
        } else {
            base
        }
    }

    fn access_visible(
        &mut self,
        now: u64,
        ctx: &mut TickCtx<'_>,
        seq: u64,
        addr: u64,
        level: HitLevel,
        speculative: bool,
    ) -> LoadStep {
        let line = line_of(addr);
        let mut new_fill = false;
        let done_at = if level == HitLevel::L1 {
            let res = ctx.hierarchy.read_demand(
                now,
                self.id,
                addr,
                AccessClass::Data,
                Visibility::Visible,
            );
            now + res.latency
        } else if let Some(id) = self.mshrs.lookup(line) {
            // Coalesce onto the outstanding miss; the fill (and any state
            // change) belongs to the primary miss, so no new access here.
            self.mshrs.coalesce(id, seq);
            self.mshrs.ready_at(id)
        } else if self.mshrs.is_full() {
            // Structural hazard: the access is not sent at all this cycle —
            // the delay the G^D_MSHR gadget manufactures (§3.2.2, Fig. 4).
            self.stats.mshr_stalls += 1;
            self.trace.record(now, TraceEvent::MshrStall { seq, addr });
            return LoadStep::Retry;
        } else {
            let res = ctx.hierarchy.read_demand(
                now,
                self.id,
                addr,
                AccessClass::Data,
                Visibility::Visible,
            );
            let latency = self.dram_latency(res.latency, level, ctx);
            let ready = now + latency;
            self.mshrs
                .allocate(line, ready, seq)
                .expect("fullness checked above");
            new_fill = true;
            ready
        };
        let value = ctx.memory.read_u64(addr);
        self.load_completions.push(LoadCompletion {
            seq,
            done_at,
            value,
        });
        if speculative && new_fill {
            // Record for CleanupSpec-style rollback on squash.
            self.rob.get_mut(seq).expect("exists").spec_fill_line = Some(line);
        }
        self.trace.record(
            now,
            TraceEvent::LoadAccess {
                seq,
                addr,
                level,
                visible: true,
            },
        );
        LoadStep::Done
    }

    #[allow(clippy::too_many_arguments)]
    fn access_invisible(
        &mut self,
        now: u64,
        ctx: &mut TickCtx<'_>,
        seq: u64,
        addr: u64,
        level: HitLevel,
        on_safe: Option<SafeAction>,
        latency_override: Option<u64>,
    ) -> LoadStep {
        let line = line_of(addr);
        let needs_mshr = latency_override.is_none() && level != HitLevel::L1;
        let done_at = if needs_mshr {
            if let Some(id) = self.mshrs.lookup(line) {
                self.mshrs.coalesce(id, seq);
                self.mshrs.ready_at(id)
            } else if self.mshrs.is_full() {
                // Check *before* touching the hierarchy: the request is
                // not sent at all this cycle, so it must not occupy a
                // shared-side MSHR entry either (a demand read would).
                self.stats.mshr_stalls += 1;
                self.trace.record(now, TraceEvent::MshrStall { seq, addr });
                return LoadStep::Retry;
            } else {
                let res = ctx.hierarchy.read_demand(
                    now,
                    self.id,
                    addr,
                    AccessClass::Data,
                    Visibility::Invisible,
                );
                let latency = self.dram_latency(res.latency, level, ctx);
                let ready = now + latency;
                self.mshrs
                    .allocate(line, ready, seq)
                    .expect("fullness checked above");
                ready
            }
        } else {
            let latency = latency_override.unwrap_or_else(|| {
                ctx.hierarchy
                    .read_demand(now, self.id, addr, AccessClass::Data, Visibility::Invisible)
                    .latency
            });
            now + latency
        };
        let value = ctx.memory.read_u64(addr);
        self.load_completions.push(LoadCompletion {
            seq,
            done_at,
            value,
        });
        let entry = self.rob.get_mut(seq).expect("exists");
        entry.pending_safe_action = on_safe;
        self.deferred += usize::from(on_safe.is_some());
        self.stats.invisible_loads += 1;
        self.trace.record(
            now,
            TraceEvent::LoadAccess {
                seq,
                addr,
                level,
                visible: false,
            },
        );
        LoadStep::Done
    }

    // ------------------------------------------------------------------
    // Phase 5: writeback (CDB)
    // ------------------------------------------------------------------

    fn writeback(&mut self, now: u64) {
        self.wb_queue.sort_by_key(|(seq, _)| *seq);
        // Process a prefix bounded by the CDB width; anything past it stays
        // queued (sorted) for next cycle — no reallocation per cycle.
        let mut granted = 0;
        let mut idx = 0;
        while idx < self.wb_queue.len() && granted < self.config.cdb_width {
            let (seq, payload) = self.wb_queue[idx];
            idx += 1;
            let Some(entry) = self.rob.get_mut(seq) else {
                continue; // squashed in flight: result dropped, no CDB slot
            };
            granted += 1;
            match payload {
                ExecPayload::Value(v) => {
                    entry.state = EntryState::Done;
                    entry.result = Some(v);
                    entry.completed_at = Some(now);
                    self.rs.wake(seq, v);
                    self.trace.record(now, TraceEvent::Writeback { seq });
                }
                ExecPayload::AddrReady { addr } => {
                    entry.addr = Some(addr);
                    self.pending_loads.push(seq);
                }
                ExecPayload::StoreReady { addr, value } => {
                    entry.addr = Some(addr);
                    entry.store_value = Some(value);
                    entry.state = EntryState::Done;
                    entry.completed_at = Some(now);
                }
                ExecPayload::FlushReady { addr } => {
                    entry.addr = Some(addr);
                    entry.state = EntryState::Done;
                    entry.completed_at = Some(now);
                }
                ExecPayload::BranchResolved { next_pc, taken } => {
                    entry.resolved = true;
                    entry.actual_next = next_pc;
                    entry.mispredicted = next_pc != entry.predicted_next;
                    entry.state = EntryState::Done;
                    entry.completed_at = Some(now);
                    let pc = entry.pc;
                    let mispredicted = entry.mispredicted;
                    self.squash_pending |= mispredicted;
                    self.predictor.update(pc, taken, next_pc, mispredicted);
                }
            }
        }
        self.wb_queue.drain(..idx);
    }

    // ------------------------------------------------------------------
    // Phase 6: squash
    // ------------------------------------------------------------------

    fn handle_squash(&mut self, now: u64, ctx: &mut TickCtx<'_>) {
        if !std::mem::take(&mut self.squash_pending) {
            return;
        }
        // The oldest mispredict wins; every younger one is squashed with
        // the rest of its wrong path.
        let entry = self
            .rob
            .iter_mut()
            .find(|e| e.mispredicted && e.resolved && !e.squash_handled)
            .expect("a pending squash has its branch in the ROB");
        entry.squash_handled = true;
        let (branch_seq, target, branch_dispatched_at) =
            (entry.seq, entry.actual_next, entry.dispatched_at);
        let removed = self.rob.squash_after(branch_seq);
        self.deferred -= removed.iter().filter(|e| e.deferred()).count();
        // Checkpoints younger than the branch belong to squashed branches;
        // the branch's own is spent, since a branch squashes at most once.
        let at = self
            .rat_checkpoints
            .partition_point(|&(seq, _)| seq < branch_seq);
        let (seq, checkpoint) = self.rat_checkpoints[at];
        debug_assert_eq!(seq, branch_seq, "branches checkpoint the RAT at dispatch");
        self.rat_checkpoints.truncate(at);
        self.rat = checkpoint;
        // Resolve checkpoint references to producers that retired after the
        // checkpoint was taken: a missing ROB entry here can only mean
        // "retired" (an older squash removing it would have removed this
        // branch too), and no post-branch writer can have retired before
        // this branch resolved, so the architectural register still holds
        // exactly that producer's result.
        for (reg, tag) in self.rat.iter_mut().enumerate() {
            if let RegTag::Rob(seq) = *tag {
                if self.rob.position(seq).is_none() {
                    *tag = RegTag::Value(self.arch_regs[reg]);
                }
            }
        }
        self.rs.squash_after(branch_seq);
        self.pending_loads.retain(|s| *s <= branch_seq);
        self.load_completions.retain(|c| c.seq <= branch_seq);
        self.wb_queue.retain(|(s, _)| *s <= branch_seq);
        let mut spec_fills = Vec::new();
        for e in &removed {
            self.mshrs.remove_target(e.seq);
            if let Some(line) = e.spec_fill_line {
                spec_fills.push(line);
            }
        }
        self.scheme.on_squash(ctx.hierarchy, self.id, &spec_fills);
        if self.scheme.protects_ifetch() {
            // Shadow-I-cache / filter-cache semantics: wrong-path
            // instruction fills are undone. Every line fetched after the
            // mispredicted branch entered the ROB is on the wrong path.
            self.spec_ifetch_fills.retain(|&(cycle, line)| {
                let wrong_path = cycle >= branch_dispatched_at;
                if wrong_path {
                    ctx.hierarchy.flush_addr(line * si_cache::LINE_BYTES);
                }
                !wrong_path
            });
        }
        self.frontend.redirect(target, now);
        self.stats.squashes += 1;
        self.stats.squashed_instrs += removed.len() as u64;
        self.trace.record(
            now,
            TraceEvent::Squash {
                branch_seq,
                squashed: removed.len(),
            },
        );
    }

    // ------------------------------------------------------------------
    // Phase 7: safe promotion (delayed loads, deferred exposures)
    // ------------------------------------------------------------------

    fn promote_safe(&mut self, now: u64, ctx: &mut TickCtx<'_>) {
        if self.deferred == 0 {
            return; // nothing deferred: skip the summary entirely
        }
        let view = self.rob.safety_view();
        for pos in 0..self.rob.len() {
            let entry = self.rob.at_mut(pos);
            if !entry.deferred() || !self.scheme.is_safe(&view, pos) {
                continue;
            }
            entry.delayed = false; // re-issues visibly next LSU pass
            let action = if entry.state == EntryState::Done {
                entry.pending_safe_action.take()
            } else {
                None
            };
            let addr = entry.addr;
            if !entry.deferred() {
                self.deferred -= 1;
            }
            if let Some(action) = action {
                self.apply_safe_action(now, ctx, addr, action);
            }
        }
    }

    fn apply_safe_action(
        &mut self,
        now: u64,
        ctx: &mut TickCtx<'_>,
        addr: Option<u64>,
        action: SafeAction,
    ) {
        let addr = addr.expect("loads with safe actions have addresses");
        match action {
            SafeAction::TouchReplacement => {
                ctx.hierarchy.touch(now, self.id, addr, AccessClass::Data);
            }
            SafeAction::Expose => {
                ctx.hierarchy.promote(now, self.id, addr, AccessClass::Data);
            }
        }
        self.stats.exposures += 1;
    }

    // ------------------------------------------------------------------
    // Phase 8: dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, now: u64) {
        for _ in 0..self.config.dispatch_width {
            let Some(next) = self.frontend.peek() else {
                return;
            };
            if self.rob.is_full() {
                self.stats.rob_full_stalls += 1;
                return;
            }
            let class = next.instr.opcode.fu_class();
            if class != FuClass::None && self.rs.is_full() {
                self.stats.rs_full_stalls += 1;
                return;
            }
            let fetched = self.frontend.pop().expect("peeked");
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut entry = RobEntry::new(seq, fetched.pc, fetched.instr, now);
            entry.predicted_next = fetched.predicted_next;
            match fetched.instr.opcode {
                Opcode::Branch => {
                    self.rat_checkpoints.push_back((seq, self.rat));
                }
                Opcode::Jump => {
                    entry.resolved = true;
                    entry.actual_next = fetched.instr.target().expect("jump target");
                    entry.state = EntryState::Done;
                }
                Opcode::Nop | Opcode::Fence | Opcode::Halt => {
                    entry.state = EntryState::Done;
                }
                Opcode::MovImm => {
                    entry.state = EntryState::Done;
                    entry.result = Some(fetched.instr.imm as u64);
                }
                Opcode::Rdtsc => {
                    entry.state = EntryState::Done;
                    entry.result = Some(now);
                }
                _ => {}
            }
            if class != FuClass::None {
                let operands = fetched
                    .instr
                    .reads()
                    .iter()
                    .map(|&r| self.resolve_operand(r))
                    .collect();
                self.rs.insert(RsEntry {
                    seq,
                    fu: class,
                    operands,
                    issued: false,
                });
            }
            if let Some(dst) = fetched.instr.writes() {
                self.rat[dst.index()] = RegTag::Rob(seq);
            }
            self.trace.record(
                now,
                TraceEvent::Dispatch {
                    seq,
                    pc: fetched.pc,
                },
            );
            self.rob.push(entry);
            self.stats.dispatched += 1;
        }
    }

    fn resolve_operand(&self, r: Reg) -> Operand {
        if r.is_zero() {
            return Operand::Ready(0);
        }
        match self.rat[r.index()] {
            RegTag::Value(v) => Operand::Ready(v),
            RegTag::Rob(seq) => match self.rob.get(seq) {
                Some(e) if e.state == EntryState::Done => {
                    Operand::Ready(e.result.expect("done writers have results"))
                }
                _ => Operand::Waiting(seq),
            },
        }
    }

    // ------------------------------------------------------------------
    // Phase 9: fetch
    // ------------------------------------------------------------------

    fn fetch(&mut self, now: u64, ctx: &mut TickCtx<'_>) {
        let outcome = self.frontend.tick(
            now,
            self.id,
            &self.program,
            ctx.hierarchy,
            &mut self.predictor,
            &mut self.trace,
        );
        match outcome {
            FetchOutcome::StalledICache => self.stats.fetch_stall_icache += 1,
            FetchOutcome::StalledQueueFull => self.stats.fetch_stall_queue += 1,
            FetchOutcome::Fetched(_) | FetchOutcome::Stopped => {}
        }
        let fills = self.frontend.take_ifetch_fills();
        if self.scheme.protects_ifetch() {
            self.spec_ifetch_fills.extend(fills);
            // Fills become architectural once no branch is unresolved:
            // then even the next instruction to dispatch is Spectre-safe.
            let next = self.rob.len();
            if self.rob.safety_view().spectre_safe(next) {
                self.spec_ifetch_fills.clear();
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadStep {
    Done,
    Retry,
    Squashed,
}
