//! Micro-ISA for the speculative-interference simulator.
//!
//! This crate defines the small RISC-like instruction set executed by the
//! cycle-level out-of-order core in [`si-cpu`](../si_cpu/index.html). The ISA
//! is deliberately minimal but carries exactly the structure the paper's
//! attacks require:
//!
//! * arithmetic classes with distinct latency/pipelining/port behaviour
//!   ([`Opcode::Sqrt`] is the 15-cycle **non-pipelined** port-0 instruction
//!   standing in for `VSQRTPD`, the gadget/target instruction of §4.2.1),
//! * loads and stores against a byte-addressed memory,
//! * conditional branches that can be mis-trained and resolve late,
//! * `Flush` (a `clflush` analog) and `Fence` for attacker orchestration and
//!   the basic defense of §5.2,
//! * `Rdtsc` for in-program timing.
//!
//! Instructions occupy [`INSTR_BYTES`] bytes each so that instruction-cache
//! behaviour (fetch, line fills, the I-Cache PoC of §4.3) is well defined.
//!
//! # Example
//!
//! ```
//! use si_isa::{Assembler, Reg, R1, R2, R3};
//!
//! let mut asm = Assembler::new(0x1000);
//! asm.mov_imm(R1, 5);
//! asm.mov_imm(R2, 7);
//! asm.add(R3, R1, R2);
//! asm.halt();
//! let program = asm.assemble().expect("assembles");
//! assert_eq!(program.len(), 4);
//! ```

mod asm;
mod encode;
mod instruction;
mod interp;
mod memory;
mod opcode;
mod program;
mod reg;
mod secret;

pub use asm::{AsmError, Assembler, Label};
pub use encode::{decode, encode, EncodeError};
pub use instruction::{Instruction, RegList};
pub use interp::{isqrt, ExecEvent, InterpError, Interpreter, MemAccess, StepOutcome};
pub use memory::Memory;
pub use opcode::{BranchCond, FuClass, Opcode};
pub use program::{Program, ProgramBuilder};
pub use reg::{
    Reg, NUM_REGS, R0, R1, R10, R11, R12, R13, R14, R15, R16, R17, R18, R19, R2, R20, R21, R22,
    R23, R24, R25, R26, R27, R28, R29, R3, R30, R31, R4, R5, R6, R7, R8, R9,
};
pub use secret::SecretSpec;

/// Size of one encoded instruction in bytes.
///
/// With 64-byte instruction-cache lines this yields
/// [`INSTRS_PER_LINE`] instructions per line, which the I-Cache attack
/// (§4.3) relies on when laying out the transient gadget and the target
/// instruction on distinct lines.
pub const INSTR_BYTES: u64 = 8;

/// Number of instructions that fit in one 64-byte instruction-cache line.
pub const INSTRS_PER_LINE: u64 = 64 / INSTR_BYTES;
