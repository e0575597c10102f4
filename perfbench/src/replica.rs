//! The traced run's unit executors.
//!
//! The grid verbs expose no hooks, and this benchmark adds no code to
//! the crates it measures. So a traced pass re-runs each grid's units
//! step for step from the benchmark's own code, calling the same public
//! functions the verbs' executors call, each as a span. Every replayed
//! unit is checked against the document the real verb produced for the
//! same grid and seed; a replica that drifts from the verb shows up as
//! failed units, not as quietly different numbers.
//!
//! Each unit also yields its deterministic simulated counts, which the
//! run digests into the simulated-statistics fingerprint.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use si_attack::{leakage, AttackScenario, BitTrial, InterferenceVariant};
use si_core::attacks::{Attack, TrialCheckpoint};
use si_cpu::{
    AgentOp, CoreStats, GeometryPreset, Machine, MachineCheckpoint, MachineConfig, NoisePreset,
    PredictorPreset,
};
use si_engine::scheduler::run_indexed;
use si_harness::attack::AttackGrid;
use si_harness::exec::mix_seed;
use si_harness::json::Json;
use si_harness::scan::ScanJob;
use si_harness::scheme_slug;
use si_harness::sweep::GridSpec;
use si_isa::{Interpreter, Reg, R31};
use si_scan::{ConfirmClass, Finding, ScanConfig};
use si_schemes::SchemeKind;
use si_trace::{ReplayPlan, TraceFile};
use si_workloads::WorkloadKind;

use crate::check::{items, num, text};
use crate::spans::Tracer;

/// The cycle budget `si_workloads::run` gives every kernel and trace.
const BUDGET: u64 = 30_000_000;

/// The deterministic simulated counts of one unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// The unit's outcome: cycles to halt, or a trace's weighted estimate.
    pub cycles: u64,
    /// Cycles actually simulated.
    pub sim_cycles: u64,
    pub retired: u64,
    pub dispatched: u64,
    pub squashed_instrs: u64,
    pub l1d_hits: u64,
    pub l1d_misses: u64,
    pub llc_hits: u64,
    pub llc_misses: u64,
    pub mshr_conflicts: u64,
    pub mshr_stalls: u64,
    pub delayed_loads: u64,
    pub defense_issue_stalls: u64,
    pub invisible_loads: u64,
    pub port_contention_stalls: u64,
    /// Instructions the reference interpreter retired.
    pub interp_retired: u64,
    /// Lines replayed into the caches while warming trace intervals.
    pub warm_lines: u64,
    /// Attack trials: 0 or 1 for a decoded bit, 2 for an abstention.
    pub decoded: u64,
}

impl SimCounts {
    /// Adds one finished machine's counters.
    fn absorb_machine(&mut self, m: &Machine, stats: CoreStats) {
        let (l1d, llc) = (m.hierarchy().l1d_stats(0), m.hierarchy().llc_stats());
        self.cycles += stats.cycles;
        self.sim_cycles += stats.cycles;
        self.retired += stats.retired;
        self.dispatched += stats.dispatched;
        self.squashed_instrs += stats.squashed_instrs;
        self.l1d_hits += l1d.hits;
        self.l1d_misses += l1d.misses;
        self.llc_hits += llc.hits;
        self.llc_misses += llc.misses;
        self.mshr_conflicts += m.shared_mshr_stats().conflicts;
        self.mshr_stalls += stats.mshr_stalls;
        self.delayed_loads += stats.delayed_loads;
        self.defense_issue_stalls += stats.defense_issue_stalls;
        self.invisible_loads += stats.invisible_loads;
        self.port_contention_stalls += stats.port_contention_stalls;
    }

    /// One fingerprint line.
    pub fn line(&self) -> String {
        format!(
            "cycles={} sim_cycles={} retired={} dispatched={} squashed={} l1d={}/{} llc={}/{} \
             mshr_conflicts={} mshr_stalls={} delayed={} defense_stalls={} invisible={} \
             port_stalls={} interp={} warm_lines={} decoded={}",
            self.cycles,
            self.sim_cycles,
            self.retired,
            self.dispatched,
            self.squashed_instrs,
            self.l1d_hits,
            self.l1d_misses,
            self.llc_hits,
            self.llc_misses,
            self.mshr_conflicts,
            self.mshr_stalls,
            self.delayed_loads,
            self.defense_issue_stalls,
            self.invisible_loads,
            self.port_contention_stalls,
            self.interp_retired,
            self.warm_lines,
            self.decoded
        )
    }
}

/// One replayed unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitRecord {
    pub label: String,
    pub scheme: &'static str,
    pub counts: SimCounts,
}

/// The units one grid replayed, plus every disagreement with the verb.
#[derive(Debug, Default)]
pub struct Replay {
    pub units: Vec<UnitRecord>,
    pub problems: Vec<String>,
}

fn field<'a>(j: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(j, |j, k| j.get(k))
}

/// Replays a sweep grid's units and checks each cell's mean cycles
/// against the verb's document.
pub fn sweep(
    tr: &Tracer,
    grid: &GridSpec,
    seed: u64,
    threads: usize,
    doc: &Json,
) -> Result<Replay, String> {
    let columns: Vec<SchemeKind> = std::iter::once(SchemeKind::Unprotected)
        .chain(grid.schemes.iter().copied())
        .collect();
    let trials = grid.trials.max(1);
    // (workload, config, expected mean cycles per column) per row.
    let mut rows = Vec::new();
    for row in items(field(doc, &["result", "rows"])) {
        let slug = |k| text(row.get(k)).unwrap_or("");
        let workload = WorkloadKind::parse(slug("workload")).ok_or("unknown workload")?;
        let cfg = MachineConfig::from_presets(
            GeometryPreset::parse(slug("geometry")).ok_or("unknown geometry")?,
            NoisePreset::parse(slug("noise")).ok_or("unknown noise")?,
            PredictorPreset::parse(slug("predictor")).ok_or("unknown predictor")?,
        );
        let expected: Vec<Option<f64>> = std::iter::once(row.get("baseline"))
            .chain(items(row.get("cells")).iter().map(Some))
            .map(|cell| num(cell.and_then(|c| c.get("mean_cycles"))))
            .collect();
        rows.push((workload, slug("predictor").to_owned(), cfg, expected));
    }

    // A cold pass decodes and plans each trace once; so does the replay.
    let mut plans = BTreeMap::new();
    for (workload, ..) in &rows {
        if let WorkloadKind::Trace(t) = workload {
            if !plans.contains_key(t.label()) {
                let bytes = t.bytes();
                let trace = tr
                    .span("trace.decode", || TraceFile::decode(bytes))
                    .map_err(|e| format!("{}: {e}", t.label()))?;
                let plan = tr
                    .span("trace.plan", || ReplayPlan::build(&trace))
                    .map_err(|e| format!("{}: {e:?}", t.label()))?;
                plans.insert(t.label(), Arc::new(plan));
            }
        }
    }

    let n = rows.len() * columns.len() * trials;
    let outcomes = run_indexed(n, threads, |i| {
        let (row, col) = (i / trials / columns.len(), i / trials % columns.len());
        let (workload, _, cfg, _) = &rows[row];
        let mut cfg = cfg.clone();
        cfg.noise.seed = mix_seed(seed, i as u64);
        let scheme = columns[col];
        let slug = scheme_slug(scheme);
        tr.tagged("workloads.run", slug, || match workload {
            WorkloadKind::Trace(t) => trace_unit(tr, &plans[t.label()], scheme, &cfg),
            kernel => kernel_unit(tr, *kernel, grid.scale, scheme, &cfg),
        })
    });

    let mut replay = Replay::default();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let (row, col, trial) = (
            i / trials / columns.len(),
            i / trials % columns.len(),
            i % trials,
        );
        let (workload, predictor, ..) = &rows[row];
        let scheme = scheme_slug(columns[col]);
        let label = format!("{} {predictor} {scheme} t{trial}", workload.label());
        match outcome {
            Ok(counts) => replay.units.push(UnitRecord {
                label,
                scheme,
                counts,
            }),
            Err(e) => replay.problems.push(format!("{label}: {e}")),
        }
    }
    // Every cell's mean over its trials must be the verb's.
    if replay.problems.is_empty() {
        for (cell, units) in replay.units.chunks(trials).enumerate() {
            let mean = units.iter().map(|u| u.counts.cycles).sum::<u64>() as f64 / trials as f64;
            let expected = rows[cell / columns.len()].3.get(cell % columns.len());
            if expected != Some(&Some(mean)) {
                replay.problems.push(format!(
                    "{}: replayed {mean} cycles, the verb reported {expected:?}",
                    units[0].label
                ));
            }
        }
    }
    Ok(replay)
}

/// `si_workloads::run` for a synthetic kernel, one span per call.
fn kernel_unit(
    tr: &Tracer,
    kind: WorkloadKind,
    scale: usize,
    scheme: SchemeKind,
    cfg: &MachineConfig,
) -> Result<SimCounts, String> {
    let program = tr.span("isa.program_build", || kind.program(scale, 42));
    let (expected, interp_retired) = tr
        .span("isa.interp", || {
            let mut reference = Interpreter::new(&program);
            reference
                .run(BUDGET)
                .map(|()| (reference.reg(R31), reference.retired()))
        })
        .map_err(|e| format!("reference interpreter: {e:?}"))?;
    let mut m = tr.span("cpu.machine_new", || {
        let mut m = Machine::new(cfg.clone());
        m.load_program_with_scheme(0, &program, scheme.build());
        m
    });
    tr.tagged("cpu.run_core_to_halt", scheme_slug(scheme), || {
        m.run_core_to_halt(0, BUDGET)
    })
    .map_err(|t| format!("timed out after {} cycles", t.cycles))?;
    let got = m.core(0).reg(R31);
    if got != expected {
        return Err(format!("checksum {got:#x}, reference {expected:#x}"));
    }
    let mut counts = SimCounts {
        interp_retired,
        ..SimCounts::default()
    };
    counts.absorb_machine(&m, m.core(0).stats());
    Ok(counts)
}

/// Sampled replay of one trace under one scheme, as the trace workload
/// runs it (`replay_trace_cached` from an empty artifact cache): each
/// interval warmed (`ReplayPlan::warm_machine`, step for step so the
/// cache warm-up is its own span), captured as a checkpoint and forked
/// with the unit's seed, then simulated. The cycle estimate is weighted
/// by cluster size. No checkpoint or interval key repeats within one
/// pass of the trace grid (one trial per cell), so a cold pass builds
/// every artifact and the replica builds them all too.
fn trace_unit(
    tr: &Tracer,
    plan: &ReplayPlan,
    scheme: SchemeKind,
    cfg: &MachineConfig,
) -> Result<SimCounts, String> {
    if plan.intervals.is_empty() {
        return Err("trace has no sampled intervals".into());
    }
    // Checkpoints are taken only under quiet noise, from a machine
    // warmed with the noise seed zeroed.
    let checkpointed =
        !cfg.disable_checkpoint && cfg.noise.dram_jitter == 0 && cfg.noise.background_period == 0;
    let mut warm_cfg = cfg.clone();
    if checkpointed {
        warm_cfg.noise.seed = 0;
    }
    let mut est_cycles = 0;
    let mut counts = SimCounts::default();
    for (idx, iv) in plan.intervals.iter().enumerate() {
        let warm = tr.span("trace.warm", || {
            let mut m = Machine::new(warm_cfg.clone());
            m.load_shared_program_with_scheme(
                0,
                Arc::clone(&plan.program),
                scheme.build(),
                iv.entry_pc,
            );
            for (i, &v) in iv.regs.iter().enumerate().skip(1) {
                let r = Reg::new(i as u8).expect("register index in range");
                m.core_mut(0).set_reg(r, v);
            }
            for segment in &plan.intervals[..=idx] {
                for &(addr, byte) in &segment.mem_delta {
                    m.memory_mut().write_u8(addr, byte);
                }
            }
            tr.span("cache.warm_access", || {
                for &line in &iv.warm_lines {
                    m.run_op(AgentOp::Access {
                        core: 0,
                        addr: line,
                    });
                }
            });
            for &line in &plan.code_lines {
                m.run_op(AgentOp::FetchAccess {
                    core: 0,
                    addr: line,
                });
            }
            for &(pc, taken, target) in &iv.branch_window {
                m.core_mut(0).train_branch(pc, taken, target);
            }
            m
        });
        let mut m = if checkpointed {
            tr.span("trace.checkpoint", || {
                MachineCheckpoint::from_machine(warm).fork_with_seed(cfg.noise.seed)
            })
        } else {
            warm
        };
        let stats = tr
            .tagged("trace.run_interval", scheme_slug(scheme), || {
                plan.run_interval(idx, &mut m, BUDGET)
            })
            .map_err(|e| format!("interval {idx}: {e:?}"))?;
        est_cycles += stats.cycles * iv.cluster_size;
        counts.absorb_machine(&m, stats);
        counts.warm_lines += iv.warm_lines.len() as u64;
    }
    // The unit's outcome is the weighted estimate, not the simulated sum.
    counts.cycles = est_cycles;
    Ok(counts)
}

/// An attack cell's shared state: `AttackScenario::prepare`, step for
/// step.
struct Prepared {
    attack: Attack,
    reference_delta: Option<u64>,
    checkpoints: Option<[TrialCheckpoint; 2]>,
}

fn prepare(tr: &Tracer, scenario: &AttackScenario) -> Prepared {
    tr.span("attack.prepare", || {
        let mut attack = Attack::new(
            scenario.variant.attack_kind(),
            scenario.scheme,
            scenario.machine(),
        );
        attack.victim_override = scenario.victim_override.clone();
        let reference_delta = attack
            .attacker_provides_reference()
            .then(|| tr.span("core.calibrate", || attack.calibrate()));
        let checkpoints = attack
            .checkpointable()
            .then(|| {
                let ck =
                    |secret| tr.span("core.checkpoint_trial", || attack.checkpoint_trial(secret));
                Some([ck(0)?, ck(1)?])
            })
            .flatten();
        Prepared {
            attack,
            reference_delta,
            checkpoints,
        }
    })
}

/// `PreparedScenario::run_bit_trial`, step for step.
fn bit_trial(tr: &Tracer, p: &Prepared, secret: u64, seed: u64) -> BitTrial {
    tr.span("attack.trial", || {
        let mut attack = p.attack.clone();
        attack.machine.noise.seed = seed;
        attack.reference_delta = p.reference_delta;
        let result = match &p.checkpoints {
            Some(cks) => tr.span("core.trial_from", || {
                attack.run_trial_from(&cks[(secret & 1) as usize])
            }),
            None => tr.span("core.run_trial", || attack.run_trial(secret)),
        };
        BitTrial {
            secret,
            decoded: result.decoded,
            cycles: result.cycles,
        }
    })
}

/// Runs every cell's bit trials the way the verbs do (cells prepared
/// lazily by their first trial) and scores each cell.
fn trials(
    tr: &Tracer,
    cells: &[(String, AttackScenario)],
    trials: usize,
    seed: u64,
    threads: usize,
) -> (Vec<UnitRecord>, Vec<leakage::LeakageScore>) {
    let bits = leakage::secret_bits(trials, seed);
    let prepared: Vec<OnceLock<Prepared>> = cells.iter().map(|_| OnceLock::new()).collect();
    let outcomes = run_indexed(cells.len() * trials, threads, |i| {
        let (cell, trial) = (i / trials, i % trials);
        let p = prepared[cell].get_or_init(|| prepare(tr, &cells[cell].1));
        bit_trial(tr, p, bits[trial], mix_seed(seed, i as u64))
    });
    let units = outcomes
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let (label, scenario) = &cells[i / trials];
            UnitRecord {
                label: format!("{label} t{}", i % trials),
                scheme: scheme_slug(scenario.scheme),
                counts: SimCounts {
                    cycles: t.cycles,
                    decoded: t.decoded.unwrap_or(2),
                    ..SimCounts::default()
                },
            }
        })
        .collect();
    let scores = outcomes.chunks(trials).map(leakage::score).collect();
    (units, scores)
}

/// Compares replayed scores with the verb's cells, in order.
fn compare_cells(
    replay: &mut Replay,
    labels: impl Iterator<Item = String>,
    scores: &[leakage::LeakageScore],
    cells: &[&Json],
) {
    if scores.len() != cells.len() {
        replay.problems.push(format!(
            "replayed {} cells, the verb reported {}",
            scores.len(),
            cells.len()
        ));
        return;
    }
    for ((label, score), cell) in labels.zip(scores).zip(cells) {
        let got = [
            score.correct as f64,
            score.wrong as f64,
            score.abstained as f64,
            score.mean_cycles,
        ];
        let want = ["correct", "wrong", "abstained", "mean_cycles"].map(|k| num(cell.get(k)));
        if got.iter().zip(&want).any(|(g, w)| Some(*g) != *w) {
            replay.problems.push(format!(
                "{label}: replayed {got:?}, the verb reported {want:?}"
            ));
        }
    }
}

/// Replays an attack grid and checks every cell's score.
pub fn attack(
    tr: &Tracer,
    grid: &AttackGrid,
    seed: u64,
    threads: usize,
    doc: &Json,
) -> Result<Replay, String> {
    let mut cells = Vec::new();
    let mut doc_cells = Vec::new();
    for row in items(field(doc, &["result", "rows"])) {
        let slug = |k| text(row.get(k)).unwrap_or("");
        let variant = InterferenceVariant::parse(slug("variant")).ok_or("unknown variant")?;
        let geometry = GeometryPreset::parse(slug("geometry")).ok_or("unknown geometry")?;
        let noise = NoisePreset::parse(slug("noise")).ok_or("unknown noise")?;
        for &scheme in &grid.schemes {
            let label = format!("{} {}", variant.slug(), scheme_slug(scheme));
            cells.push((label, AttackScenario::new(variant, scheme, geometry, noise)));
        }
        doc_cells.extend(items(row.get("cells")));
    }
    let (units, scores) = trials(tr, &cells, grid.trials.max(1), seed, threads);
    let mut replay = Replay {
        units,
        problems: Vec::new(),
    };
    let labels = cells.iter().map(|(l, _)| l.clone());
    compare_cells(&mut replay, labels, &scores, &doc_cells);
    Ok(replay)
}

/// The distinct confirm classes among a report's findings, in class
/// order, each with its first finding (as the scan verb picks them).
fn confirm_classes(findings: &[Finding]) -> Vec<(ConfirmClass, Finding)> {
    let mut out: Vec<(ConfirmClass, Finding)> = Vec::new();
    for f in findings {
        if let Some(class) = f.channel.confirm_class() {
            if !out.iter().any(|(c, _)| *c == class) {
                out.push((class, *f));
            }
        }
    }
    out.sort_by_key(|(c, _)| *c);
    out
}

/// Replays the scan: the static pass per corpus program, then the
/// confirm trials, checked cell by cell.
pub fn scan(
    tr: &Tracer,
    job: &ScanJob,
    seed: u64,
    threads: usize,
    doc: &Json,
) -> Result<(Replay, usize), String> {
    let config = ScanConfig {
        horizon: job.horizon,
    };
    let mut cells = Vec::new();
    let mut findings = 0;
    for entry in si_scan::corpus() {
        let report = tr.span("scan.static", || {
            si_scan::scan(&entry.program, &entry.secrets, &config)
        });
        findings += report.findings.len();
        if entry.scaffold.is_none() {
            continue;
        }
        for (class, finding) in confirm_classes(&report.findings) {
            for &scheme in &job.schemes {
                let scenario =
                    AttackScenario::from_finding(&finding, scheme, entry.program.clone())
                        .ok_or("finding without a confirm class")?;
                let label = format!("{} {} {}", entry.name, class.slug(), scheme_slug(scheme));
                cells.push((label, scenario));
            }
        }
    }
    let (units, scores) = trials(tr, &cells, job.trials.max(1), seed, threads);
    let mut replay = Replay {
        units,
        problems: Vec::new(),
    };
    let doc_cells: Vec<&Json> = items(field(doc, &["result", "programs"]))
        .iter()
        .flat_map(|p| items(p.get("confirm")))
        .flat_map(|c| items(c.get("cells")))
        .collect();
    let labels = cells.iter().map(|(l, _)| l.clone());
    compare_cells(&mut replay, labels, &scores, &doc_cells);
    let doc_findings = num(field(doc, &["summary", "findings"]));
    if doc_findings != Some(findings as f64) {
        replay.problems.push(format!(
            "static pass found {findings}, the verb reported {doc_findings:?}"
        ));
    }
    Ok((replay, findings))
}
