//! Behavioural tests of pipeline mechanisms the attacks depend on:
//! store-to-load ordering, fences, MSHR pressure, delayed-load promotion,
//! the speculation schemes' observable cache effects, and determinism.

use speculative_interference::cache::HitLevel;
use speculative_interference::cpu::{AgentOp, Machine, MachineConfig};
use speculative_interference::isa::{Assembler, Program, R1, R2, R3, R4, R5, R6};
use speculative_interference::schemes::SchemeKind;

fn run(program: &Program, scheme: SchemeKind) -> Machine {
    let mut m = Machine::new(MachineConfig::default());
    m.load_program_with_scheme(0, program, scheme.build());
    m.run_core_to_halt(0, 1_000_000).expect("halts");
    m
}

#[test]
fn store_to_load_forwarding_sees_the_youngest_older_store() {
    let mut asm = Assembler::new(0);
    asm.mov_imm(R1, 0x3000);
    asm.mov_imm(R2, 11);
    asm.store(R2, R1, 0);
    asm.mov_imm(R2, 22);
    asm.store(R2, R1, 0); // youngest older store to the address
    asm.load(R3, R1, 0);
    asm.halt();
    let m = run(&asm.assemble().unwrap(), SchemeKind::Unprotected);
    assert_eq!(m.core(0).reg(R3), 22);
    assert_eq!(m.memory().read_u64(0x3000), 22);
}

#[test]
fn loads_wait_for_unknown_older_store_addresses() {
    // The store's address arrives late (long dependency chain); the load
    // to the same address must still observe the stored value.
    let mut asm = Assembler::new(0);
    asm.mov_imm(R1, 0x3000);
    asm.mov_imm(R2, 99);
    // Slow address: chain of multiplies collapsed back to 0x3000.
    asm.mov_imm(R4, 7);
    for _ in 0..6 {
        asm.mul(R4, R4, R4);
    }
    asm.and(R4, R4, si_isa_r0());
    asm.add(R4, R1, R4);
    asm.store(R2, R4, 0); // address known late
    asm.load(R3, R1, 0); // same address, issued early in program order
    asm.halt();
    let m = run(&asm.assemble().unwrap(), SchemeKind::Unprotected);
    assert_eq!(
        m.core(0).reg(R3),
        99,
        "load must not bypass the older store"
    );
}

fn si_isa_r0() -> speculative_interference::isa::Reg {
    speculative_interference::isa::R0
}

#[test]
fn program_fences_serialize_issue() {
    // Identical work with and without a fence between a slow load and its
    // consumers must give identical results but more cycles with fences.
    let build = |fence: bool| {
        let mut asm = Assembler::new(0);
        asm.data_u64(0x5000, 5);
        asm.mov_imm(R1, 0x5000);
        asm.load(R2, R1, 0);
        if fence {
            asm.fence();
        }
        for _ in 0..8 {
            asm.add_imm(R3, R3, 1);
        }
        asm.halt();
        asm.assemble().unwrap()
    };
    let plain = run(&build(false), SchemeKind::Unprotected);
    let fenced = run(&build(true), SchemeKind::Unprotected);
    assert_eq!(plain.core(0).reg(R3), 8);
    assert_eq!(fenced.core(0).reg(R3), 8);
    assert!(
        fenced.core(0).stats().cycles > plain.core(0).stats().cycles,
        "the fence must delay the independent adds behind the slow load"
    );
}

#[test]
fn mshr_pressure_is_observable_in_stats() {
    // More outstanding distinct misses than MSHRs forces retries.
    let mut cfg = MachineConfig::default();
    cfg.core.mshrs = 2;
    let mut asm = Assembler::new(0);
    asm.mov_imm(R1, 0x10_0000);
    for i in 0..6 {
        asm.load(Reg4(i), R1, i as i64 * 4096);
    }
    asm.halt();
    let mut m = Machine::new(cfg);
    m.load_program_with_scheme(0, &asm.assemble().unwrap(), SchemeKind::Unprotected.build());
    m.run_core_to_halt(0, 100_000).unwrap();
    assert!(
        m.core(0).stats().mshr_stalls > 0,
        "six parallel misses over two MSHRs must stall: {}",
        m.core(0).stats()
    );
}

#[allow(non_snake_case)]
fn Reg4(i: usize) -> speculative_interference::isa::Reg {
    speculative_interference::isa::Reg::new(4 + (i as u8 % 8)).unwrap()
}

#[test]
fn dom_delays_speculative_misses_and_promotes_them_when_safe() {
    // A load in the shadow of a slow branch misses: DoM must delay it
    // (stat) and still complete it with the right value once safe.
    let mut asm = Assembler::new(0);
    asm.data_u64(0x6000, 1234);
    asm.data_u64(0x7000, 1); // branch bound
    asm.mov_imm(R1, 0x7000);
    asm.flush(R1, 0); // make the branch resolve slowly
    asm.fence();
    asm.load(R2, R1, 0); // slow bound
    let skip = asm.label("skip");
    asm.mov_imm(R4, 0x6000);
    asm.branch_ltu(R2, R0_, skip); // never taken (r2=1 !< 0): fallthrough
    asm.load(R5, R4, 0); // shadowed miss -> delayed, then promoted
    asm.bind(skip);
    asm.halt();
    let m = run(&asm.assemble().unwrap(), SchemeKind::DomSpectre);
    assert_eq!(m.core(0).reg(R5), 1234);
    assert!(m.core(0).stats().delayed_loads > 0, "{}", m.core(0).stats());
}

use speculative_interference::isa::R0 as R0_;

#[test]
fn invisispec_loads_execute_invisibly_then_expose() {
    let mut asm = Assembler::new(0);
    asm.data_u64(0x6000, 55);
    asm.data_u64(0x7000, 1);
    asm.mov_imm(R1, 0x7000);
    asm.flush(R1, 0);
    asm.fence();
    asm.load(R2, R1, 0);
    let skip = asm.label("skip");
    asm.mov_imm(R4, 0x6000);
    asm.branch_ltu(R2, R0_, skip);
    asm.load(R5, R4, 0);
    asm.bind(skip);
    asm.halt();
    let m = run(&asm.assemble().unwrap(), SchemeKind::InvisiSpecSpectre);
    assert_eq!(m.core(0).reg(R5), 55);
    let stats = m.core(0).stats();
    assert!(stats.invisible_loads > 0, "{stats}");
    assert!(stats.exposures > 0, "the correct-path load must be exposed");
    // The exposed line is persistently cached (it retired).
    assert!(m.hierarchy().resident_anywhere(0x6000));
}

#[test]
fn squashed_transient_fills_are_invisible_under_invisispec_but_not_baseline() {
    // Mis-train a branch so a transient load runs and squashes; compare
    // the line's residency afterwards.
    let build = || {
        let mut asm = Assembler::new(0);
        asm.data_u64(0x7000, 4); // bound
        asm.mov_imm(R1, 0x7000);
        asm.mov_imm(R2, 0); // i
        asm.mov_imm(R6, 0x9_0000); // transient target
        let top = asm.here("top");
        let body = asm.label("body");
        let join = asm.label("join");
        asm.load(R3, R1, 0); // bound (cached after first round)
                             // slow the comparison so the transient window is wide
        asm.mov_imm(R4, 9);
        for _ in 0..6 {
            asm.mul(R4, R4, R4);
        }
        asm.and(R4, R4, R0_);
        asm.add(R3, R3, R4);
        asm.branch_ltu(R2, R3, body); // taken while i < 4
        asm.jump(join);
        asm.bind(body);
        asm.load(R5, R6, 0); // i<4: architectural; i=4: transient only
        asm.add_imm(R6, R6, 4096); // next line each iteration
        asm.add_imm(R2, R2, 1);
        asm.jump(top);
        asm.bind(join);
        asm.halt();
        asm.assemble().unwrap()
    };
    // The 5th line (i == 4) is touched only transiently.
    let transient_addr = 0x9_0000 + 4 * 4096;
    let base = run(&build(), SchemeKind::Unprotected);
    assert!(
        base.hierarchy().resident_anywhere(transient_addr),
        "baseline leaves the transient fill (the Spectre leak)"
    );
    let protected = run(&build(), SchemeKind::InvisiSpecSpectre);
    assert!(
        !protected.hierarchy().resident_anywhere(transient_addr),
        "InvisiSpec must leave no trace of the squashed load"
    );
    let cleanup = run(&build(), SchemeKind::CleanupSpec);
    assert!(
        !cleanup.hierarchy().resident_anywhere(transient_addr),
        "CleanupSpec must roll the fill back"
    );
}

#[test]
fn machine_execution_is_deterministic() {
    let mut asm = Assembler::new(0);
    asm.data_u64(0x5000, 3);
    asm.mov_imm(R1, 0x5000);
    asm.mov_imm(R2, 0);
    let top = asm.here("top");
    asm.load(R3, R1, 0);
    asm.add(R2, R2, R3);
    asm.mov_imm(R4, 200);
    asm.branch_ltu(R2, R4, top);
    asm.halt();
    let p = asm.assemble().unwrap();
    let a = run(&p, SchemeKind::DomSpectre);
    let b = run(&p, SchemeKind::DomSpectre);
    assert_eq!(a.core(0).reg(R2), b.core(0).reg(R2));
    assert_eq!(a.core(0).stats(), b.core(0).stats());
    assert_eq!(a.cycle(), b.cycle());
}

#[test]
fn agent_timed_access_distinguishes_every_hierarchy_level() {
    let mut m = Machine::new(MachineConfig::default());
    let lat = m.config().hierarchy.latency;
    // Memory level.
    let r = m
        .run_op(AgentOp::TimedAccess {
            core: 0,
            addr: 0xA000,
        })
        .unwrap();
    assert_eq!((r.level, r.latency), (HitLevel::Memory, lat.dram));
    // L1 after the fill.
    let r = m
        .run_op(AgentOp::TimedAccess {
            core: 0,
            addr: 0xA000,
        })
        .unwrap();
    assert_eq!((r.level, r.latency), (HitLevel::L1, lat.l1));
    // LLC from the other core.
    let r = m
        .run_op(AgentOp::TimedAccess {
            core: 1,
            addr: 0xA000,
        })
        .unwrap();
    assert_eq!((r.level, r.latency), (HitLevel::Llc, lat.llc));
    // L1 again after its private fill, then flush -> Memory.
    m.run_op(AgentOp::Flush(0xA000));
    let r = m
        .run_op(AgentOp::TimedAccess {
            core: 1,
            addr: 0xA000,
        })
        .unwrap();
    assert_eq!(r.level, HitLevel::Memory);
}

#[test]
fn nested_mispredicts_restore_the_rat_inner_first() {
    use speculative_interference::cpu::TraceEvent;
    use speculative_interference::isa::{Interpreter, Reg, R10, R11, R7, R8, R9};
    const PROBE: u64 = 0x10_0000;
    let line = |r3: u64| PROBE + (r3 << 12);
    // The outer branch waits on cold loads, so it resolves long after the
    // inner branch on its wrong path. Both are taken and predicted
    // not-taken. After the inner squash, the transient load must see the
    // inner checkpoint's r3 (7); after the outer squash, the architectural
    // path must see the outer checkpoint's r3 (5) and r5 (100).
    let mut asm = Assembler::new(0);
    let outer = asm.label("outer");
    let inner = asm.label("inner");
    asm.mov_imm(R1, 0x8000); // cold lines, all reading 0
    asm.mov_imm(R3, 5);
    asm.mov_imm(R5, 100);
    asm.mov_imm(R10, PROBE as i64);
    asm.mov_imm(R11, 12);
    asm.load(R2, R1, 0);
    for k in 1..4 {
        // A chain of dependent misses outlasts the wrong path's I-misses.
        asm.add(R8, R1, R2);
        asm.load(R2, R8, k * 0x1000);
    }
    asm.branch_eq(R2, R0_, outer); // outer: resolves after the misses
    asm.mov_imm(R3, 7); // outer wrong path from here on
    asm.mov_imm(R4, 1);
    asm.branch_eq(R4, R4, inner); // inner: resolves in a few cycles
    asm.mov_imm(R3, 9); // inner wrong path
    asm.mov_imm(R5, 11);
    asm.fence(); // nothing on the inner wrong path issues past here
    asm.bind(inner);
    asm.shl(R8, R3, R11);
    asm.add(R8, R8, R10);
    asm.load(R9, R8, 0); // transient touch of line(r3)
    asm.add(R5, R5, R3);
    asm.bind(outer);
    asm.add(R6, R5, R3);
    asm.add(R3, R3, R3);
    asm.mov_imm(R7, 1);
    asm.halt();
    let program = asm.assemble().unwrap();

    let mut m = Machine::new(MachineConfig::default());
    m.load_program_with_scheme(0, &program, SchemeKind::Unprotected.build());
    m.core_mut(0).set_trace_enabled(true);
    m.run_core_to_halt(0, 1_000_000).expect("halts");
    let squashed: Vec<u64> = m
        .core(0)
        .trace()
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            TraceEvent::Squash { branch_seq, .. } => Some(*branch_seq),
            _ => None,
        })
        .collect();
    assert_eq!(squashed.len(), 2, "one squash per branch: {squashed:?}");
    assert!(
        squashed[0] > squashed[1],
        "the inner (younger) branch squashes first: {squashed:?}"
    );
    let hierarchy = m.hierarchy();
    assert!(
        hierarchy.resident_anywhere(line(7)),
        "inner checkpoint restored"
    );
    for wrong in [5, 9] {
        assert!(!hierarchy.resident_anywhere(line(wrong)), "r3 = {wrong}");
    }

    let mut reference = Interpreter::new(&program);
    reference.run(100_000).expect("reference halts");
    for i in 1..12 {
        let r = Reg::new(i).unwrap();
        assert_eq!(m.core(0).reg(r), reference.reg(r), "r{i}");
    }
    assert_eq!((m.core(0).reg(R6), m.core(0).reg(R3)), (105, 10));
}

/// Runs `program` on the core and on the reference interpreter and checks
/// that every register and every written memory byte agree.
fn assert_matches_interpreter(program: &Program) -> Machine {
    use speculative_interference::isa::{Interpreter, Reg};
    let mut m = Machine::new(MachineConfig::default());
    m.load_program_with_scheme(0, program, SchemeKind::Unprotected.build());
    m.core_mut(0).set_trace_enabled(true);
    m.run_core_to_halt(0, 1_000_000).expect("halts");
    let mut reference = Interpreter::new(program);
    reference.run(100_000).expect("reference halts");
    for i in 1..32 {
        let r = Reg::new(i).unwrap();
        assert_eq!(m.core(0).reg(r), reference.reg(r), "r{i}");
    }
    assert_eq!(m.memory().snapshot(), reference.mem_snapshot());
    m
}

#[test]
fn word_accesses_at_the_top_of_the_address_space_wrap() {
    let mut asm = Assembler::new(0);
    asm.mov_imm(R1, -4);
    asm.mov_imm(R2, 0x5566_7788);
    asm.store(R2, R1, 0); // bytes u64::MAX - 3 ..= u64::MAX, then 0 ..= 3
    asm.load(R3, R1, 0);
    asm.load(R4, R0_, 0); // the word's high half, at address 0
    asm.halt();
    let m = assert_matches_interpreter(&asm.assemble().unwrap());
    assert_eq!(m.core(0).reg(R3), 0x5566_7788);
    assert_eq!(m.memory().read_u8(u64::MAX), 0x55);
}

#[test]
fn a_wrong_path_load_at_the_top_of_the_address_space_is_harmless() {
    use speculative_interference::cpu::TraceEvent;
    let mut asm = Assembler::new(0);
    let skip = asm.label("skip");
    asm.mov_imm(R1, 0x8000);
    asm.load(R2, R1, 0); // cold miss: the branch resolves late
    asm.branch_eq(R2, R0_, skip); // taken, predicted not-taken
    asm.mov_imm(R3, -4); // wrong path from here on
    asm.load(R4, R3, 0);
    asm.bind(skip);
    asm.mov_imm(R5, 1);
    asm.halt();
    let m = assert_matches_interpreter(&asm.assemble().unwrap());
    let top = 4u64.wrapping_neg();
    assert!(
        m.core(0)
            .trace()
            .events()
            .iter()
            .any(|(_, e)| matches!(e, TraceEvent::LoadAccess { addr, .. } if *addr == top)),
        "the wrong-path load executed"
    );
    assert_eq!(m.core(0).reg(R4), 0, "and was squashed");
}
