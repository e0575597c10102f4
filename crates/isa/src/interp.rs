//! A reference in-order interpreter for the micro-ISA.
//!
//! The interpreter defines the ISA's *architectural* semantics: what each
//! instruction computes, ignoring all timing. The out-of-order core in
//! `si-cpu` must produce identical architectural results — the workspace's
//! property tests check exactly that — and the security definition of §5.1
//! compares executions against `NoSpec(E)`, whose architectural path this
//! interpreter also defines.

use std::fmt;

use crate::{Instruction, Memory, Opcode, Program, Reg, INSTR_BYTES, NUM_REGS};

/// Integer square root (floor), the semantics of [`Opcode::Sqrt`].
pub fn isqrt(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    let mut x = (v as f64).sqrt() as u64;
    // f64 sqrt can be off by one at the extremes of the u64 range; fix up.
    while x.checked_mul(x).is_none_or(|sq| sq > v) {
        x -= 1;
    }
    while (x + 1).checked_mul(x + 1).is_some_and(|sq| sq <= v) {
        x += 1;
    }
    x
}

/// Error conditions the interpreter can hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// `pc` does not hold an instruction.
    NoInstruction(u64),
    /// The step budget of [`Interpreter::run`] was exhausted before `Halt`.
    StepLimit,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::NoInstruction(pc) => write!(f, "no instruction at pc 0x{pc:x}"),
            InterpError::StepLimit => write!(f, "step limit exhausted before halt"),
        }
    }
}

impl std::error::Error for InterpError {}

/// What a single [`Interpreter::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An ordinary instruction executed; execution continues.
    Continue,
    /// A `Halt` executed; the program is complete.
    Halted,
}

/// One data-memory access observed by [`Interpreter::step_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// `true` for a store, `false` for a load.
    pub store: bool,
}

/// What one instruction did, architecturally — the trace-emission hook
/// trace recorders consume (`si-trace`). Everything a compact
/// branch+memory trace needs is here; timing is deliberately absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecEvent {
    /// The instruction's address.
    pub pc: u64,
    /// For conditional branches: whether the branch was taken.
    pub branch_taken: Option<bool>,
    /// For loads and stores: the access performed.
    pub mem: Option<MemAccess>,
}

/// The in-order reference interpreter.
///
/// # Example
///
/// ```
/// use si_isa::{Assembler, Interpreter, R1, R2, R3};
///
/// let mut asm = Assembler::new(0);
/// asm.mov_imm(R1, 21);
/// asm.add(R2, R1, R1);
/// asm.halt();
/// let program = asm.assemble()?;
///
/// let mut interp = Interpreter::new(&program);
/// interp.run(100)?;
/// assert_eq!(interp.reg(R2), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter {
    program: Program,
    regs: [u64; NUM_REGS],
    mem: Memory,
    pc: u64,
    halted: bool,
    retired: u64,
}

impl Interpreter {
    /// Creates an interpreter over a program, loading its initial data.
    pub fn new(program: &Program) -> Interpreter {
        let mut mem = Memory::new();
        mem.load_program_data(program);
        Interpreter {
            pc: program.entry(),
            program: program.clone(),
            regs: [0; NUM_REGS],
            mem,
            halted: false,
            retired: 0,
        }
    }

    /// Reads an architectural register (reads of `r0` return 0).
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes an architectural register (writes to `r0` are discarded).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Reads a 64-bit little-endian word from memory (absent bytes read 0).
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.mem.read_u64(addr)
    }

    /// Writes a 64-bit little-endian word to memory.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.mem.write_u64(addr, value);
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether `Halt` has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Executes a single instruction.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::NoInstruction`] if the program counter points
    /// at an address with no instruction.
    pub fn step(&mut self) -> Result<StepOutcome, InterpError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let instr = *self
            .program
            .fetch(self.pc)
            .ok_or(InterpError::NoInstruction(self.pc))?;
        let next = self.execute(&instr);
        self.retired += 1;
        if self.halted {
            Ok(StepOutcome::Halted)
        } else {
            self.pc = next;
            Ok(StepOutcome::Continue)
        }
    }

    /// Runs until `Halt` or until `max_steps` instructions have executed.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::StepLimit`] if the budget runs out first, or
    /// [`InterpError::NoInstruction`] on a wild program counter.
    pub fn run(&mut self, max_steps: u64) -> Result<(), InterpError> {
        for _ in 0..max_steps {
            if let StepOutcome::Halted = self.step()? {
                return Ok(());
            }
        }
        if self.halted {
            Ok(())
        } else {
            Err(InterpError::StepLimit)
        }
    }

    /// Returns the sequence of data addresses the remaining execution will
    /// load, paired with the loaded values — the *architectural load trace*,
    /// used as the `NoSpec` reference by the security checker.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`Interpreter::run`].
    pub fn load_trace(&mut self, max_steps: u64) -> Result<Vec<(u64, u64)>, InterpError> {
        let mut trace = Vec::new();
        for _ in 0..max_steps {
            if self.halted {
                return Ok(trace);
            }
            let instr = *self
                .program
                .fetch(self.pc)
                .ok_or(InterpError::NoInstruction(self.pc))?;
            if instr.opcode == Opcode::Load {
                let addr = self.reg(instr.src1).wrapping_add(instr.imm as u64);
                trace.push((addr, self.read_u64(addr)));
            }
            self.step()?;
        }
        if self.halted {
            Ok(trace)
        } else {
            Err(InterpError::StepLimit)
        }
    }

    /// Executes a single instruction and reports what it did — the hook
    /// trace recording is built on. Equivalent to [`Interpreter::step`]
    /// plus an [`ExecEvent`] describing the instruction's branch outcome
    /// and data-memory access (if any).
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::NoInstruction`] if the program counter
    /// points at an address with no instruction.
    pub fn step_event(&mut self) -> Result<(StepOutcome, ExecEvent), InterpError> {
        let pc = self.pc;
        if self.halted {
            return Ok((
                StepOutcome::Halted,
                ExecEvent {
                    pc,
                    branch_taken: None,
                    mem: None,
                },
            ));
        }
        let instr = *self
            .program
            .fetch(pc)
            .ok_or(InterpError::NoInstruction(pc))?;
        // Observe operands *before* stepping; step reads the same state.
        let mem = match instr.opcode {
            Opcode::Load => Some(MemAccess {
                addr: self.reg(instr.src1).wrapping_add(instr.imm as u64),
                store: false,
            }),
            Opcode::Store => Some(MemAccess {
                addr: self.reg(instr.src1).wrapping_add(instr.imm as u64),
                store: true,
            }),
            _ => None,
        };
        let branch_taken = (instr.opcode == Opcode::Branch)
            .then(|| instr.cond.eval(self.reg(instr.src1), self.reg(instr.src2)));
        let outcome = self.step()?;
        Ok((
            outcome,
            ExecEvent {
                pc,
                branch_taken,
                mem,
            },
        ))
    }

    /// Snapshot of data memory as sorted `(address, byte)` pairs — the
    /// deterministic functional-state export trace replay injects into a
    /// detailed machine at a sampled interval's start.
    pub fn mem_snapshot(&self) -> Vec<(u64, u8)> {
        self.mem.snapshot()
    }

    fn execute(&mut self, instr: &Instruction) -> u64 {
        let s1 = self.reg(instr.src1);
        let s2 = self.reg(instr.src2);
        let fallthrough = self.pc + INSTR_BYTES;
        match instr.opcode {
            Opcode::Nop | Opcode::Fence => {}
            Opcode::MovImm => self.set_reg(instr.dst, instr.imm as u64),
            Opcode::Add => self.set_reg(instr.dst, s1.wrapping_add(s2)),
            Opcode::Sub => self.set_reg(instr.dst, s1.wrapping_sub(s2)),
            Opcode::And => self.set_reg(instr.dst, s1 & s2),
            Opcode::Or => self.set_reg(instr.dst, s1 | s2),
            Opcode::Xor => self.set_reg(instr.dst, s1 ^ s2),
            Opcode::Shl => self.set_reg(instr.dst, s1.wrapping_shl((s2 & 63) as u32)),
            Opcode::Shr => self.set_reg(instr.dst, s1.wrapping_shr((s2 & 63) as u32)),
            Opcode::AddImm => self.set_reg(instr.dst, s1.wrapping_add(instr.imm as u64)),
            Opcode::Mul => self.set_reg(instr.dst, s1.wrapping_mul(s2)),
            Opcode::Sqrt => self.set_reg(instr.dst, isqrt(s1)),
            Opcode::Div => self.set_reg(instr.dst, s1 / s2.max(1)),
            Opcode::Load => {
                let addr = s1.wrapping_add(instr.imm as u64);
                let v = self.read_u64(addr);
                self.set_reg(instr.dst, v);
            }
            Opcode::Store => {
                let addr = s1.wrapping_add(instr.imm as u64);
                self.write_u64(addr, s2);
            }
            Opcode::Flush => {} // no architectural effect
            Opcode::Branch => {
                if instr.cond.eval(s1, s2) {
                    return instr.imm as u64;
                }
            }
            Opcode::Jump => return instr.imm as u64,
            Opcode::Rdtsc => self.set_reg(instr.dst, self.retired),
            Opcode::Halt => self.halted = true,
        }
        fallthrough
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assembler, BranchCond, R0, R1, R2, R3, R4};

    #[test]
    fn isqrt_is_floor_sqrt() {
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(3), 1);
        assert_eq!(isqrt(4), 2);
        assert_eq!(isqrt(99), 9);
        assert_eq!(isqrt(100), 10);
        assert_eq!(isqrt(u64::MAX), (1u64 << 32) - 1);
    }

    #[test]
    fn arithmetic_program() {
        let mut asm = Assembler::new(0);
        asm.mov_imm(R1, 6);
        asm.mov_imm(R2, 7);
        asm.mul(R3, R1, R2);
        asm.sqrt(R4, R3); // floor(sqrt(42)) = 6
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut it = Interpreter::new(&p);
        it.run(100).unwrap();
        assert_eq!(it.reg(R3), 42);
        assert_eq!(it.reg(R4), 6);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut asm = Assembler::new(0);
        asm.data_u64(0x1000, 0xabcdef);
        asm.mov_imm(R1, 0x1000);
        asm.load(R2, R1, 0);
        asm.store(R2, R1, 8);
        asm.load(R3, R1, 8);
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut it = Interpreter::new(&p);
        it.run(100).unwrap();
        assert_eq!(it.reg(R2), 0xabcdef);
        assert_eq!(it.reg(R3), 0xabcdef);
    }

    #[test]
    fn loop_counts_to_ten() {
        let mut asm = Assembler::new(0);
        asm.mov_imm(R1, 0);
        asm.mov_imm(R2, 10);
        let top = asm.here("top");
        asm.add_imm(R1, R1, 1);
        asm.branch(BranchCond::Ltu, R1, R2, top);
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut it = Interpreter::new(&p);
        it.run(1000).unwrap();
        assert_eq!(it.reg(R1), 10);
    }

    #[test]
    fn step_limit_reported() {
        let mut asm = Assembler::new(0);
        let top = asm.here("top");
        asm.jump(top);
        let p = asm.assemble().unwrap();
        let mut it = Interpreter::new(&p);
        assert_eq!(it.run(10), Err(InterpError::StepLimit));
    }

    #[test]
    fn wild_pc_reported() {
        let mut asm = Assembler::new(0);
        asm.nop(); // falls through to empty address
        let p = asm.assemble().unwrap();
        let mut it = Interpreter::new(&p);
        assert_eq!(it.run(10), Err(InterpError::NoInstruction(INSTR_BYTES)));
    }

    #[test]
    fn load_trace_records_addresses_and_values() {
        let mut asm = Assembler::new(0);
        asm.data_u64(0x100, 7);
        asm.data_u64(0x200, 9);
        asm.mov_imm(R1, 0x100);
        asm.load(R2, R1, 0);
        asm.mov_imm(R1, 0x200);
        asm.load(R3, R1, 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut it = Interpreter::new(&p);
        let trace = it.load_trace(100).unwrap();
        assert_eq!(trace, vec![(0x100, 7), (0x200, 9)]);
    }

    #[test]
    fn step_event_reports_branches_and_memory() {
        let mut asm = Assembler::new(0);
        asm.data_u64(0x100, 7);
        asm.mov_imm(R1, 0x100);
        asm.load(R2, R1, 0);
        asm.store(R2, R1, 8);
        let skip = asm.label("skip");
        asm.branch(BranchCond::Eq, R2, R2, skip);
        asm.nop(); // skipped
        asm.bind(skip);
        asm.branch(BranchCond::Ltu, R2, R0, skip); // never taken
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut it = Interpreter::new(&p);
        let mut branches = Vec::new();
        let mut accesses = Vec::new();
        loop {
            let (out, ev) = it.step_event().unwrap();
            if let Some(taken) = ev.branch_taken {
                branches.push(taken);
            }
            if let Some(m) = ev.mem {
                accesses.push((m.addr, m.store));
            }
            if out == StepOutcome::Halted {
                break;
            }
        }
        assert_eq!(branches, vec![true, false]);
        assert_eq!(accesses, vec![(0x100, false), (0x108, true)]);
        assert_eq!(it.retired(), 6, "the skipped nop never executed");
        // step_event matches step: a fresh interpreter stepped plainly
        // reaches the same architectural state.
        let mut plain = Interpreter::new(&p);
        plain.run(100).unwrap();
        assert_eq!(plain.reg(R2), it.reg(R2));
        assert_eq!(plain.mem_snapshot(), it.mem_snapshot());
    }

    #[test]
    fn mem_snapshot_is_sorted_and_complete() {
        let mut asm = Assembler::new(0);
        asm.data_u64(0x200, 1);
        asm.mov_imm(R1, 0x100);
        asm.mov_imm(R2, 0xff);
        asm.store(R2, R1, 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut it = Interpreter::new(&p);
        it.run(100).unwrap();
        let snap = it.mem_snapshot();
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert!(snap.contains(&(0x100, 0xff)), "store visible");
        assert!(snap.contains(&(0x200, 1)), "initial data visible");
    }

    #[test]
    fn division_by_zero_is_saturated() {
        let mut asm = Assembler::new(0);
        asm.mov_imm(R1, 100);
        asm.div(R2, R1, R0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut it = Interpreter::new(&p);
        it.run(10).unwrap();
        assert_eq!(it.reg(R2), 100); // divide by max(0,1) = 1
    }
}
