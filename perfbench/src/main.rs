//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run covers one workload (see `README.md`). Set-up builds the
//! inputs and runs one untimed warm-up pass; it is timed from process
//! start, and repeated in child processes of this program
//! (`--setup-only 1`) so that `setup_s` is a median of set-ups that each
//! started cold. Then passes run back to back through the real grid
//! verbs for `--seconds`.
//! With `--trace 1`, the second half of the time goes to traced passes
//! that time every layer's public calls as spans, and the run reports
//! per-layer metrics instead of end-to-end ones. Every pass's output is
//! checked. The last line of standard output is the JSON result.

mod check;
mod grids;
mod layers;
mod replica;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use si_engine::digest::fnv64;
use si_engine::ExecStats;
use si_harness::json::Json;

use check::{Checker, PassCheck};
use grids::{PassOutput, State, Workload, WORKLOADS};
use layers::TracedRun;
use spans::Tracer;
use stats::{median, tail_percentile};

/// Set-ups per untraced run, each in a fresh process; `setup_s` is
/// their median.
const SETUP_REPS: usize = 3;

/// Engine threads: the machine's parallelism, capped so that figures
/// from larger hosts stay comparable.
const MAX_THREADS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Only set up, print the set-up time and exit.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!(
                        "unknown workload '{value}' (workloads: {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(parse_seed(&value)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or("--seconds needs a positive whole number")?,
                );
            }
            "--trace" => trace = Some(parse_flag("--trace", &value)?),
            "--setup-only" => setup_only = parse_flag("--setup-only", &value)?,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn parse_flag(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1")),
    }
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("--seed: {e}"))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch space inside the checkout, removed on the way out.
    let scratch = Path::new("target").join("perfbench").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("{}: {e}", scratch.display()))
        .and_then(|()| match args.setup_only {
            true => setup_only(&args, &scratch, start),
            false => run(&args, &scratch, start),
        });
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Attempted and failed units over every checked pass.
#[derive(Default)]
struct Accounting {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Accounting {
    fn record(&mut self, verdict: PassCheck) {
        self.attempted += verdict.units;
        self.failed += verdict.failed;
        self.problems.extend(verdict.problems);
    }

    /// Checks one pass; a pass that errored fails all its units.
    fn check(&mut self, checker: &mut Checker, out: &Result<PassOutput, String>, units: usize) {
        match out {
            Ok(out) => self.record(checker.check_pass(&out.docs)),
            Err(e) => self.record(PassCheck {
                units,
                failed: units,
                problems: vec![e.clone()],
            }),
        }
    }
}

/// The product of one set-up.
struct SetUp {
    state: State,
    /// The warm-up pass, checked.
    warm: PassOutput,
    units_per_pass: usize,
    /// Host seconds from process start to the end of the warm-up pass.
    setup_s: f64,
}

/// Builds the inputs and runs one checked, untimed warm-up pass.
fn set_up(
    args: &Args,
    scratch: &Path,
    start: Instant,
    threads: usize,
    checker: &mut Checker,
    acct: &mut Accounting,
) -> Result<SetUp, String> {
    let state = State::setup(args.workload, args.seed, threads, scratch)?;
    let warm = state.pass(None).map_err(|e| format!("warm-up pass: {e}"))?;
    let units_per_pass = warm.stats.total;
    acct.record(checker.check_pass(&warm.docs));
    Ok(SetUp {
        state,
        warm,
        units_per_pass,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

/// `--setup-only 1`: one set-up, reported as
/// `setup <seconds> <attempted> <failed>` for the parent run.
fn setup_only(args: &Args, scratch: &Path, start: Instant) -> Result<(), String> {
    let threads = nproc().min(MAX_THREADS);
    let mut acct = Accounting::default();
    let mut checker = Checker::new(args.seed, args.workload.expected());
    let done = set_up(args, scratch, start, threads, &mut checker, &mut acct)?;
    for p in &acct.problems {
        eprintln!("perfbench: set-up: {p}");
    }
    println!(
        "setup {} {} {}",
        number(done.setup_s),
        acct.attempted,
        acct.failed
    );
    Ok(())
}

/// One set-up in a child process of this program, which starts cold.
/// Returns its set-up seconds and its warm-up pass's verdict.
fn set_up_in_child(args: &Args) -> Result<(f64, PassCheck), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", "1", "--trace", "0", "--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<&str> = stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup "))
        .map(|l| l.split(' ').collect())
        .unwrap_or_default();
    match (out.status.success(), fields.as_slice()) {
        (true, [secs, attempted, failed]) => {
            let parse = |v: &str| v.parse::<usize>().map_err(|e| format!("{v}: {e}"));
            let secs = secs.parse::<f64>().map_err(|e| format!("{secs}: {e}"))?;
            let (units, failed) = (parse(attempted)?, parse(failed)?);
            let problems = match failed {
                0 => Vec::new(),
                _ => vec!["a set-up process's warm-up pass failed its checks".into()],
            };
            Ok((
                secs,
                PassCheck {
                    units,
                    failed,
                    problems,
                },
            ))
        }
        _ => Err(format!("set-up process failed ({})", out.status)),
    }
}

fn run(args: &Args, scratch: &Path, start: Instant) -> Result<(), String> {
    let threads = nproc().min(MAX_THREADS);
    let workload = args.workload;
    let mut acct = Accounting::default();
    let mut checker = Checker::new(args.seed, workload.expected());

    // This process's own set-up, timed from its start; its warm-up pass
    // fixes the unit count and the documents the traced replicas are
    // checked against.
    let SetUp {
        state,
        warm,
        units_per_pass,
        setup_s: own_setup_s,
    } = set_up(args, scratch, start, threads, &mut checker, &mut acct)?;
    let reference = warm.docs;
    let mut setup_s = vec![own_setup_s];
    if !args.trace {
        for _ in 1..SETUP_REPS {
            match set_up_in_child(args) {
                Ok((secs, verdict)) => {
                    setup_s.push(secs);
                    acct.record(verdict);
                }
                Err(e) => acct.record(PassCheck {
                    units: units_per_pass,
                    failed: units_per_pass,
                    problems: vec![e],
                }),
            }
        }
    }

    // Timed passes, back to back; each is checked after its clock stops.
    let budget = Duration::from_secs(args.seconds);
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let mut pass_s = Vec::new();
    let mut exec = ExecStats::default();
    let mut artifacts = Vec::new();
    let timed_start = Instant::now();
    while pass_s.is_empty() || timed_start.elapsed() < untraced_budget {
        let t = Instant::now();
        let out = state.pass(None);
        pass_s.push(t.elapsed().as_secs_f64());
        acct.check(&mut checker, &out, units_per_pass);
        if let Ok(out) = out {
            exec.absorb(out.stats);
            artifacts = out.artifacts;
        }
    }
    let grid_s = median(&pass_s);

    let meta = Meta {
        workload: workload.name(),
        seed: args.seed,
        threads,
        passes: pass_s.len(),
        setup_reps: setup_s.len(),
        units_per_pass,
        trace: args.trace,
    };

    if !args.trace {
        let setup = median(&setup_s);
        let failed_frac = acct.failed as f64 / acct.attempted.max(1) as f64;
        let metrics: Vec<(String, &str, f64)> = [
            ("grid_s", "s", grid_s),
            ("units_per_s", "units/s", units_per_pass as f64 / grid_s),
            ("setup_s", "s", setup),
            ("peak_rss_mb", "MB", peak_rss_mb()),
            ("units_ok_frac", "ratio", 1.0 - failed_frac),
        ]
        .into_iter()
        .map(|(name, unit, value)| (name.to_owned(), unit, value))
        .collect();
        meta.print(&acct);
        match tail_percentile(&pass_s) {
            Some((q, v)) => println!("grid_s p{q} {v:.6} s over {} passes", pass_s.len()),
            None => println!(
                "grid_s: no tail percentile with ten of {} passes beyond it",
                pass_s.len()
            ),
        }
        println!("units_failed_frac {failed_frac} ratio");
        print_table(&metrics);
        print_result(&acct, &metrics);
        return Ok(());
    }

    // The traced half: replayed units (or, for warm-rerun, the verbs
    // themselves) with every layer call as a span.
    let tracer = Tracer::new();
    let mut run = TracedRun {
        grid_s,
        threads,
        artifacts,
        ..TracedRun::default()
    };
    if let Some(store) = &state.store {
        run.store_records = store.records;
        run.store_fill_s = store.fill_s;
    }
    // Parsed once: traced passes replay these documents' grids and
    // render them, as the verbs do.
    let reference: Vec<(&'static str, Json)> = reference
        .iter()
        .map(|d| Ok((d.name, si_harness::json::parse(&d.text)?)))
        .collect::<Result<_, String>>()?;
    let mut traced_s = Vec::new();
    let mut first_units: Option<Vec<replica::UnitRecord>> = None;
    let traced_start = Instant::now();
    let mut pass_id = 0;
    while traced_s.is_empty() || traced_start.elapsed() < budget - untraced_budget {
        pass_id += 1;
        let t = Instant::now();
        let traced = tracer.pass(pass_id, || traced_pass(&tracer, &state, &reference));
        traced_s.push(t.elapsed().as_secs_f64());
        let traced = match traced {
            Ok(traced) => traced,
            Err(e) => {
                acct.check(&mut checker, &Err(e), units_per_pass);
                continue;
            }
        };
        let mut verdict = match &traced.docs {
            Some(docs) => checker.check_pass(docs),
            None => PassCheck {
                units: units_per_pass,
                ..PassCheck::default()
            },
        };
        verdict.problems.extend(traced.problems);
        // The simulated statistics must repeat exactly on every pass and,
        // where recorded, equal the recorded digest.
        let digest = fnv64(fingerprint(&traced.units).as_bytes());
        if let Some(want) = workload.sim_digest().filter(|want| *want != digest) {
            verdict.problems.push(format!(
                "simulated-statistics digest {digest:016x} is not the recorded {want:016x}"
            ));
        }
        match &first_units {
            None => first_units = Some(traced.units.clone()),
            Some(first) if *first != traced.units => {
                verdict
                    .problems
                    .push("simulated statistics differ between passes".into());
            }
            Some(_) => {}
        }
        if !verdict.problems.is_empty() {
            verdict.failed = verdict.units;
        }
        acct.record(verdict);
        exec.absorb(traced.stats);
        run.findings = traced.findings;
        run.decoded_bytes = traced.decoded_bytes;
        run.doc_bytes = traced.doc_bytes;
        run.units.extend(traced.units);
    }
    run.traced_passes = traced_s.len();
    run.traced_grid_s = median(&traced_s);
    run.exec = exec;
    run.spans = tracer.spans();

    let first_units = first_units.unwrap_or_default();
    let fingerprint = fingerprint(&first_units);
    let digest = fnv64(fingerprint.as_bytes());
    let metrics = run.metrics();
    let trace_path = write_trace(&meta, &run, &fingerprint, digest)?;
    meta.print(&acct);
    println!(
        "traced passes {} (median {:.6} s), untraced passes {} (median {:.6} s)",
        run.traced_passes, run.traced_grid_s, meta.passes, grid_s
    );
    println!(
        "simulated-statistics digest {digest:016x} over {} units; spans in {}",
        first_units.len(),
        trace_path.display()
    );
    print_table(&metrics);
    print_result(&acct, &metrics);
    Ok(())
}

/// The simulated-statistics fingerprint: one line per unit.
fn fingerprint(units: &[replica::UnitRecord]) -> String {
    units
        .iter()
        .map(|u| format!("{} {}\n", u.label, u.counts.line()))
        .collect()
}

/// What one traced pass produced.
#[derive(Default)]
struct TracedPass {
    units: Vec<replica::UnitRecord>,
    problems: Vec<String>,
    /// The verbs' documents, when the pass ran the verbs themselves.
    docs: Option<Vec<check::Doc>>,
    stats: ExecStats,
    findings: usize,
    decoded_bytes: usize,
    doc_bytes: usize,
}

fn traced_pass(
    tr: &Tracer,
    state: &State,
    reference: &[(&'static str, Json)],
) -> Result<TracedPass, String> {
    let mut out = TracedPass::default();
    if state.store.is_some() {
        // Nothing simulates: the verbs splice every unit from the store.
        let pass = state.pass(Some(tr))?;
        out.doc_bytes = pass.docs.iter().map(|d| d.text.len()).sum();
        out.stats = pass.stats;
        out.docs = Some(pass.docs);
        return Ok(out);
    }
    let doc = |name: &str| {
        reference
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, doc)| doc)
            .ok_or_else(|| format!("no reference document {name}"))
    };
    let grids = &state.grids;
    let mut replays = Vec::new();
    if let Some((name, grid)) = &grids.sweep {
        replays.push(replica::sweep(
            tr,
            grid,
            state.seed,
            state.threads,
            doc(name)?,
        )?);
        out.decoded_bytes = grid
            .workloads
            .iter()
            .filter_map(|w| match w {
                si_workloads::WorkloadKind::Trace(t) => Some(t.bytes().len()),
                _ => None,
            })
            .sum();
    }
    if let Some(grid) = &grids.attack {
        replays.push(replica::attack(
            tr,
            grid,
            state.seed,
            state.threads,
            doc("attack-headline")?,
        )?);
    }
    if let Some(job) = &grids.scan {
        let (replay, findings) =
            replica::scan(tr, job, state.seed, state.threads, doc("scan-corpus")?)?;
        replays.push(replay);
        out.findings = findings;
    }
    for replay in replays {
        out.units.extend(replay.units);
        out.problems.extend(replay.problems);
    }
    // Rendering is part of every pass: render the verbs' documents.
    for (_, doc) in reference {
        out.doc_bytes += tr.span("harness.render", || doc.to_pretty()).len();
    }
    Ok(out)
}

/// Run metadata, printed with every result.
struct Meta {
    workload: &'static str,
    seed: u64,
    threads: usize,
    passes: usize,
    setup_reps: usize,
    units_per_pass: usize,
    trace: bool,
}

impl Meta {
    fn json(&self) -> String {
        let store = match self.workload {
            "warm-rerun" => "filled cold in each set-up, warm for every pass",
            _ => "none",
        };
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"engine_threads\": {}, \
             \"trace\": {}, \"untraced_passes\": {}, \"setup_reps\": {}, \"units_per_pass\": {}, \
             \"rustc\": \"{}\", \"git_rev\": \"{}\", \"store\": \"{store}\", \
             \"artifact_cache\": \"cleared before every pass\"}}",
            self.workload,
            self.seed,
            nproc(),
            self.threads,
            self.trace,
            self.passes,
            self.setup_reps,
            self.units_per_pass,
            env!("PERFBENCH_RUSTC_VERSION"),
            git_rev(),
        )
    }

    fn print(&self, acct: &Accounting) {
        println!("meta {}", self.json());
        println!("units attempted {}, failed {}", acct.attempted, acct.failed);
        for p in acct.problems.iter().take(10) {
            println!("problem: {p}");
        }
    }
}

fn print_table(metrics: &[(String, &'static str, f64)]) {
    for (name, unit, value) in metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
}

/// A finite JSON number with every digit.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn print_result(acct: &Accounting, metrics: &[(String, &'static str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        acct.failed == 0 && acct.problems.is_empty() && acct.attempted > 0,
        acct.attempted,
        acct.failed,
        body.join(", ")
    );
}

/// Writes the spans, the unit fingerprint and its digest as JSON lines.
fn write_trace(
    meta: &Meta,
    run: &TracedRun,
    fingerprint: &str,
    digest: u64,
) -> Result<PathBuf, String> {
    use std::fmt::Write;
    let mut text = format!("{{\"meta\": {}}}\n", meta.json());
    for s in &run.spans {
        let _ = writeln!(
            text,
            "{{\"span\": \"{}\", \"tag\": \"{}\", \"id\": {}, \"parent\": {}, \"pass\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.name,
            s.tag.unwrap_or(""),
            s.id,
            s.parent.unwrap_or(0),
            s.pass,
            s.start_ns,
            s.end_ns
        );
    }
    for line in fingerprint.lines() {
        let _ = writeln!(text, "{{\"unit\": \"{line}\"}}");
    }
    let _ = writeln!(text, "{{\"sim_digest\": \"{digest:016x}\"}}");
    let path = Path::new("target")
        .join("perfbench")
        .join(format!("trace-{}-{}.jsonl", meta.workload, meta.seed));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out revision, read from `.git` without starting `git`;
/// "none" outside a repository.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(Path::new(".git").join(name))
            .map_or_else(|_| "unknown".into(), |rev| rev.trim().to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "none".into(),
    }
}
