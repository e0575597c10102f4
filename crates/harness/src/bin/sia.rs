//! `sia` — the speculative-interference-attacks experiment runner.
//!
//! ```text
//! sia list                          # every registered experiment
//! sia run fig07 --scheme dom        # one experiment
//! sia run --all --trials 5          # CI smoke: everything, small
//! sia sweep --grid defense          # declarative scenario sweep
//! sia sweep --grid defense --cache  # incremental: only changed units run
//! sia attack --grid headline        # interference attacks + leakage scores
//! sia scan                          # static gadget scan + dynamic confirm
//! sia serve                         # long-running grid daemon (HTTP)
//! sia cache stats                   # content-addressed unit store
//! sia report results/               # results/*.json -> markdown tables
//! ```
//!
//! Each run writes one validated JSON document per experiment to the
//! output directory (default `results/`) and prints a one-line status.
//! Exit code is non-zero if any experiment fails.

use std::process::ExitCode;
use std::time::Instant;

use si_engine::{ArtifactCache, PackStore};
use si_harness::attack::{run_attack_grid, AttackGrid, ATTACK_GRID_NAMES};
use si_harness::json::{parse, Json};
use si_harness::render::{render_report, splice_report, REPORT_BEGIN, REPORT_END};
use si_harness::scan::{run_scan, ScanJob};
use si_harness::sweep::{run_sweep, GridSpec, GRID_NAMES};
use si_harness::{
    parse_scheme, registry, run_experiment_engine, Engine, ExecStats, Experiment, RunConfig,
    CACHE_DEFAULT_DIR, CODE_EPOCH,
};

const USAGE: &str = "\
sia — speculative-interference experiment harness

USAGE:
    sia list
    sia run <EXPERIMENT>... [OPTIONS]
    sia run --all [OPTIONS]
    sia sweep [SWEEP OPTIONS]
    sia attack [ATTACK OPTIONS]
    sia scan [SCAN OPTIONS]
    sia serve [SERVE OPTIONS]
    sia cache stats|clear [--dir <DIR>]
    sia report [PATH...] [REPORT OPTIONS]
    sia trace record|replay|info|example [TRACE OPTIONS]

RUN OPTIONS:
    --all              run every registered experiment
    --trials <N>       sample-size knob (per-experiment meaning; default varies)
    --threads <N>      worker threads (0 or absent: all available cores)
    --seed <N>         base seed (decimal or 0x-hex; default 0x51A02021)
    --scheme <S>       scheme override for single-scheme experiments
                       (e.g. dom, invisispec, fence-futuristic; see `sia list`)
    --out <DIR>        output directory (default: results/)
    --cache            serve experiments with unchanged specs from the unit
                       cache; execute and store the rest
    --cache-dir <DIR>  cache location (default: results/.cache; implies --cache)
    --print            also print each result document to stdout
    --no-wall-time     omit wall_time_ms from result files (bit-stable output)
    -h, --help         show this help

SWEEP OPTIONS:
    --grid <NAME>      grid to run: defense (default), schemes, geometry,
                       noise, full, trace
    --filter <A=V,..>  restrict an axis (repeatable); axes: scheme, workload,
                       geometry, noise, predictor. Scheme values match as
                       family prefixes: --filter scheme=dom,fence
    --quick            CI smoke: scale 16, one trial per cell
    --scale <N>        workload problem scale override
    --trials <N>       trials per cell override
    --threads/--seed   as for run
    --cache            execute only units whose spec changed; splice the rest
                       from the cache (output stays byte-identical)
    --cache-dir <DIR>  cache location (default: results/.cache; implies --cache)
    --out <FILE>       output file (default: results/sweep-<grid>.json)
    --print            also print the result document to stdout
    --no-wall-time     omit wall_time_ms (bit-stable output)
    --no-artifact-cache  disable the in-process artifact cache (shared
                       decoded traces, replay plans, warm checkpoints);
                       output is byte-identical either way — the trace
                       CI job diffs the two to prove it

ATTACK OPTIONS:
    --grid <NAME>      grid to run: headline (default), geometry, noise, full
    --filter <A=V,..>  restrict an axis (repeatable); axes: scheme, variant,
                       geometry, noise. Unknown values list the axis's
                       valid values in the error
    --quick            CI smoke: six trials per cell, same cells
    --trials <N>       secret bits per cell override
    --no-checkpoint    force every trial onto the from-scratch path instead
                       of forking the per-cell machine checkpoint; output
                       is byte-identical either way (the differential CI
                       job diffs the two to prove it)
    --threads/--seed   as for run
    --cache/--cache-dir  as for sweep
    --out <FILE>       output file (default: results/attack-<grid>.json)
    --print            also print the result document to stdout
    --no-wall-time     omit wall_time_ms (bit-stable output)

SCAN OPTIONS:
    --quick            CI smoke: six confirm trials per cell, same corpus
    --trials <N>       secret bits per confirm cell override (default 12)
    --horizon <N>      speculative-window horizon in instructions
                       (default 128, the ROB depth)
    --threads/--seed   as for run
    --cache/--cache-dir  as for sweep (caches the confirm bit-trials;
                       the static scan itself is cheap and always runs)
    --out <FILE>       output file (default: results/scan-corpus.json)
    --print            also print the result document to stdout
    --no-wall-time     omit wall_time_ms (bit-stable output)

SERVE OPTIONS:
    --addr <A>         bind address (default: 127.0.0.1:8787; port 0 picks
                       an ephemeral port)
    --threads <N>      worker threads per request (0 or absent: all cores)
    --seed <N>         seed for requests that do not carry one
                       (default 0x51A02021, the CLI default)
    --store-dir <DIR>  packed unit store location (default: results/.cache)
                       POST /v1/sweep|attack|scan run grids against the
                       shared warm store; responses are byte-identical to
                       the offline verbs' --no-wall-time output. GET / on
                       the daemon lists the endpoints. SIGTERM/SIGINT shut
                       down cleanly (drain, flush, exit 0).

CACHE OPTIONS:
    stats              entry count and total bytes of the packed unit store
    clear              delete every stored unit outcome
    --dir <DIR>        store location (default: results/.cache)

REPORT OPTIONS:
    PATH...            result files or directories of *.json
                       (default: results/)
    --out <FILE>       write the markdown report to FILE instead of stdout
    --update <FILE>    splice the report between the sia:report markers
                       of FILE (e.g. EXPERIMENTS.md)
    --check <FILE>     verify FILE's marked region matches the report;
                       exit non-zero on drift

TRACE OPTIONS (see docs/TRACE_FORMAT.md for the .sit wire format):
    record --workload <KERNEL>   record a kernel run into a .sit trace
           [--scale N]           kernel problem scale (default 48)
           [--seed N]            program-generation seed (default 42)
           [--interval N]        instructions per sample interval (default 1024)
           [--clusters K]        max SimPoint clusters (default 8)
           [--warmup W]          leading intervals pinned as exact singletons (default 4)
           [--out FILE]          output (default traces/<kernel>.sit)
    replay <FILE>                sampled replay through the cycle-level machine
           [--scheme S]          speculation scheme (default unprotected)
           [--predictor P]       predictor preset (default tage)
           [--full]              replay the whole trace, no sampling
           [--budget N]          cycle budget (default 30000000)
           [--no-artifact-cache] rebuild the replay plan and warm machines
                                 from scratch instead of using the in-process
                                 artifact cache (identical output, for
                                 differential testing)
    info <FILE>                  decode and summarize a trace
    example [--out FILE]         write the docs/TRACE_FORMAT.md worked-example
                                 fixture (default traces/example.sit)
";

/// Parses a `--seed` value: decimal or `0x`-prefixed hex. Shared by
/// `run` and `sweep` so the accepted syntax can never diverge.
fn parse_seed(text: &str) -> Result<u64, String> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
    .map_err(|e| format!("--seed: {e}"))
}

/// Parses a `--threads` value — the one thread policy every verb shares:
/// `0` (like an absent flag) means all available cores, anything else is
/// the worker count (the scheduler clamps to the unit count downstream).
fn parse_threads(text: &str) -> Result<usize, String> {
    let n: usize = text.parse().map_err(|e| format!("--threads: {e}"))?;
    Ok(if n == 0 { default_threads() } else { n })
}

/// The `--threads` default: all available cores.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The `--cache`/`--cache-dir` pair every executing verb shares.
#[derive(Clone, Default)]
struct CacheArgs {
    enabled: bool,
    dir: Option<String>,
}

impl CacheArgs {
    /// Handles one argument if it belongs to this option family.
    fn accept(
        &mut self,
        arg: &str,
        value: &mut dyn FnMut(&str) -> Result<String, String>,
    ) -> Result<bool, String> {
        match arg {
            "--cache" => self.enabled = true,
            "--cache-dir" => {
                self.dir = Some(value("--cache-dir")?);
                self.enabled = true;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds the engine this verb executes through.
    fn engine(&self, threads: usize) -> Engine {
        if self.enabled {
            let dir = self.dir.clone().unwrap_or(CACHE_DEFAULT_DIR.to_owned());
            Engine::with_cache(threads, CODE_EPOCH, dir)
        } else {
            Engine::new(threads)
        }
    }
}

/// Formats the engine's executed/cached split for a status line.
fn stats_note(stats: &ExecStats) -> String {
    format!(
        "units={} executed={} cached={} coalesced={}",
        stats.total, stats.executed, stats.cached, stats.coalesced
    )
}

struct Args {
    ids: Vec<String>,
    all: bool,
    cfg: RunConfig,
    out_dir: String,
    cache: CacheArgs,
    print: bool,
    wall_time: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        ids: Vec::new(),
        all: false,
        cfg: RunConfig::default(),
        out_dir: "results".to_owned(),
        cache: CacheArgs::default(),
        print: false,
        wall_time: true,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        if args.cache.accept(arg, &mut value)? {
            continue;
        }
        match arg.as_str() {
            "--all" => args.all = true,
            "--trials" => {
                args.cfg.trials = Some(
                    value("--trials")?
                        .parse()
                        .map_err(|e| format!("--trials: {e}"))?,
                );
            }
            "--threads" => args.cfg.threads = parse_threads(&value("--threads")?)?,
            "--seed" => args.cfg.seed = parse_seed(&value("--seed")?)?,
            "--scheme" => {
                let text = value("--scheme")?;
                args.cfg.scheme =
                    Some(parse_scheme(&text).ok_or_else(|| format!("unknown scheme '{text}'"))?);
            }
            "--out" => args.out_dir = value("--out")?,
            "--print" => args.print = true,
            "--no-wall-time" => args.wall_time = false,
            flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
            id => args.ids.push(id.to_owned()),
        }
    }
    Ok(args)
}

fn cmd_list() -> ExitCode {
    println!(
        "{:<16} {:>7} {:>8}  TITLE",
        "EXPERIMENT", "TRIALS", "SCHEME?"
    );
    for e in registry() {
        println!(
            "{:<16} {:>7} {:>8}  {}",
            e.id(),
            e.default_trials(),
            if e.supports_scheme_override() {
                "yes"
            } else {
                "-"
            },
            e.title()
        );
    }
    println!("\nschemes: dom, dom-nontso, dom-futuristic, invisispec, invisispec-futuristic,");
    println!("         safespec-wfb, safespec-wfc, muontrap, condspec, cleanupspec,");
    println!(
        "         unprotected, fence, fence-futuristic, advanced, advanced-hold, advanced-age"
    );
    println!(
        "\nsweep grids (`sia sweep --grid`): {}",
        GRID_NAMES.join(", ")
    );
    println!(
        "attack grids (`sia attack --grid`): {}",
        ATTACK_GRID_NAMES.join(", ")
    );
    ExitCode::SUCCESS
}

/// Extracts `summary` as a compact `k=v` status string.
fn summary_line(envelope: &Json) -> String {
    match envelope.get("summary") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| format!("{k}={}", v.to_compact()))
            .collect::<Vec<_>>()
            .join(" "),
        _ => String::new(),
    }
}

fn run_one(exp: &dyn Experiment, args: &Args, engine: &Engine) -> Result<ExecStats, String> {
    let start = Instant::now();
    let (outcome, stats) = run_experiment_engine(exp, &args.cfg, engine);
    let mut envelope = outcome?;
    let wall_ms = start.elapsed().as_millis();
    if args.wall_time {
        envelope.push("wall_time_ms", Json::from(wall_ms as u64));
    }
    let text = envelope.to_pretty();
    // Validate before writing: a malformed document is a harness bug and
    // must fail the run, not poison downstream consumers.
    parse(&text).map_err(|e| format!("emitted malformed JSON: {e}"))?;
    let path = format!("{}/{}.json", args.out_dir, exp.id());
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir))?;
    std::fs::write(&path, &text).map_err(|e| format!("writing {path}: {e}"))?;
    if args.print {
        print!("{text}");
    }
    println!(
        "{:<16} {}  {:>7}ms  {}  -> {}",
        exp.id(),
        if stats.cached > 0 {
            "ok (cached)"
        } else {
            "ok"
        },
        wall_ms,
        summary_line(&envelope),
        path
    );
    Ok(stats)
}

fn cmd_run(args: &Args) -> ExitCode {
    let experiments = registry();
    let selected: Vec<&dyn Experiment> = if args.all {
        experiments.iter().map(AsRef::as_ref).collect()
    } else {
        let mut picked = Vec::new();
        for id in &args.ids {
            match experiments.iter().find(|e| e.id() == id) {
                Some(e) => picked.push(e.as_ref()),
                None => {
                    eprintln!("error: unknown experiment '{id}' (try `sia list`)");
                    return ExitCode::FAILURE;
                }
            }
        }
        picked
    };
    if selected.is_empty() {
        eprintln!("error: nothing to run — name experiments or pass --all");
        return ExitCode::FAILURE;
    }
    // Each experiment is one engine unit and parallelizes its own trials
    // (`cfg.threads`), so the unit-level engine stays single-threaded.
    let engine = args.cache.engine(1);
    let mut failures = 0usize;
    let mut totals = ExecStats::default();
    for exp in &selected {
        match run_one(*exp, args, &engine) {
            Ok(stats) => totals.absorb(stats),
            Err(e) => {
                eprintln!("{:<16} FAILED: {e}", exp.id());
                failures += 1;
            }
        }
    }
    if args.cache.enabled {
        println!("engine           {}", stats_note(&totals));
    }
    if failures > 0 {
        eprintln!("{failures} of {} experiments failed", selected.len());
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Options shared by the grid-shaped verbs (`sweep`, `attack`).
struct GridArgs {
    grid_name: String,
    filters: Vec<String>,
    quick: bool,
    scale: Option<usize>,
    trials: Option<usize>,
    threads: usize,
    seed: u64,
    cache: CacheArgs,
    out: Option<String>,
    print: bool,
    wall_time: bool,
    no_checkpoint: bool,
    no_artifact_cache: bool,
}

/// Parses the sweep/attack option set. `verb` labels errors;
/// `allow_scale` gates the sweep-only `--scale` knob.
fn parse_grid_args(
    argv: &[String],
    verb: &str,
    default_grid: &str,
    allow_scale: bool,
) -> Result<GridArgs, String> {
    let mut args = GridArgs {
        grid_name: default_grid.to_owned(),
        filters: Vec::new(),
        quick: false,
        scale: None,
        trials: None,
        threads: default_threads(),
        seed: RunConfig::default().seed,
        cache: CacheArgs::default(),
        out: None,
        print: false,
        wall_time: true,
        no_checkpoint: false,
        no_artifact_cache: false,
    };
    let attack_verb = verb == "attack";
    let sweep_verb = verb == "sweep";
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        if args.cache.accept(arg, &mut value)? {
            continue;
        }
        match arg.as_str() {
            "--grid" => args.grid_name = value("--grid")?,
            "--filter" => args.filters.push(value("--filter")?),
            "--quick" => args.quick = true,
            "--scale" if allow_scale => {
                args.scale = Some(
                    value("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?,
                );
            }
            "--trials" => {
                args.trials = Some(
                    value("--trials")?
                        .parse()
                        .map_err(|e| format!("--trials: {e}"))?,
                );
            }
            "--no-checkpoint" if attack_verb => args.no_checkpoint = true,
            "--no-artifact-cache" if sweep_verb => args.no_artifact_cache = true,
            "--threads" => args.threads = parse_threads(&value("--threads")?)?,
            "--seed" => args.seed = parse_seed(&value("--seed")?)?,
            "--out" => args.out = Some(value("--out")?),
            "--print" => args.print = true,
            "--no-wall-time" => args.wall_time = false,
            other => return Err(format!("unknown {verb} option '{other}'")),
        }
    }
    Ok(args)
}

/// Validates, writes, and announces one grid-verb result document.
fn emit_grid_doc(
    verb: &str,
    grid_name: &str,
    mut envelope: Json,
    stats: &ExecStats,
    wall_ms: u128,
    args: &GridArgs,
    path: &str,
) -> Result<(), String> {
    if args.wall_time {
        envelope.push("wall_time_ms", Json::from(wall_ms as u64));
    }
    let text = envelope.to_pretty();
    parse(&text).map_err(|e| format!("emitted malformed JSON: {e}"))?;
    if let Some(dir) = std::path::Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
    if args.print {
        print!("{text}");
    }
    println!(
        "{verb}:{:<10} ok  {:>7}ms  {}  {}  -> {}",
        grid_name,
        wall_ms,
        stats_note(stats),
        summary_line(&envelope),
        path
    );
    Ok(())
}

fn cmd_sweep(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_grid_args(argv, "sweep", "defense", true)?;
    let mut grid = GridSpec::named(&args.grid_name)?;
    if args.quick {
        grid.quick();
    }
    for f in &args.filters {
        grid.apply_filter(f)?;
    }
    if let Some(s) = args.scale {
        grid.scale = s;
    }
    if let Some(t) = args.trials {
        grid.trials = t;
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("results/sweep-{}.json", args.grid_name));
    // The artifact cache only changes wall-clock time, never results
    // (a CI job diffs cached vs uncached sweeps to prove it).
    ArtifactCache::global().set_enabled(!args.no_artifact_cache);
    let start = Instant::now();
    let (envelope, stats) = run_sweep(&grid, args.seed, &args.cache.engine(args.threads))?;
    emit_grid_doc(
        "sweep",
        &args.grid_name,
        envelope,
        &stats,
        start.elapsed().as_millis(),
        &args,
        &path,
    )?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_attack(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_grid_args(argv, "attack", "headline", false)?;
    let mut grid = AttackGrid::named(&args.grid_name)?;
    if args.quick {
        grid.quick();
    }
    for f in &args.filters {
        grid.apply_filter(f)?;
    }
    if let Some(t) = args.trials {
        grid.trials = t;
    }
    grid.disable_checkpoint = args.no_checkpoint;
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("results/attack-{}.json", args.grid_name));
    let start = Instant::now();
    let (envelope, stats) = run_attack_grid(&grid, args.seed, &args.cache.engine(args.threads))?;
    emit_grid_doc(
        "attack",
        &args.grid_name,
        envelope,
        &stats,
        start.elapsed().as_millis(),
        &args,
        &path,
    )?;
    Ok(ExitCode::SUCCESS)
}

/// `sia scan` — static gadget scan over the committed corpus plus
/// engine-backed dynamic confirmation of every confirmable finding class.
fn cmd_scan(argv: &[String]) -> Result<ExitCode, String> {
    let mut job = ScanJob::standard();
    let mut quick = false;
    let mut trials: Option<usize> = None;
    let mut horizon: Option<usize> = None;
    // Only the shared emit/engine knobs of GridArgs apply to scan; the
    // grid-shaped fields stay at their defaults.
    let mut args = GridArgs {
        grid_name: "corpus".to_owned(),
        filters: Vec::new(),
        quick: false,
        scale: None,
        trials: None,
        threads: default_threads(),
        seed: RunConfig::default().seed,
        cache: CacheArgs::default(),
        out: None,
        print: false,
        wall_time: true,
        no_checkpoint: false,
        no_artifact_cache: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        if args.cache.accept(arg, &mut value)? {
            continue;
        }
        match arg.as_str() {
            "--quick" => quick = true,
            "--trials" => {
                trials = Some(
                    value("--trials")?
                        .parse()
                        .map_err(|e| format!("--trials: {e}"))?,
                );
            }
            "--horizon" => {
                let n: usize = value("--horizon")?
                    .parse()
                    .map_err(|e| format!("--horizon: {e}"))?;
                if n == 0 {
                    return Err("--horizon needs a window depth of at least 1".into());
                }
                horizon = Some(n);
            }
            "--threads" => args.threads = parse_threads(&value("--threads")?)?,
            "--seed" => args.seed = parse_seed(&value("--seed")?)?,
            "--out" => args.out = Some(value("--out")?),
            "--print" => args.print = true,
            "--no-wall-time" => args.wall_time = false,
            other => return Err(format!("unknown scan option '{other}'")),
        }
    }
    if quick {
        job.quick();
    }
    if let Some(t) = trials {
        job.trials = t;
    }
    if let Some(h) = horizon {
        job.horizon = h;
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| "results/scan-corpus.json".to_owned());
    let start = Instant::now();
    let (envelope, stats) = run_scan(&job, args.seed, &args.cache.engine(args.threads))?;
    emit_grid_doc(
        "scan",
        "corpus",
        envelope,
        &stats,
        start.elapsed().as_millis(),
        &args,
        &path,
    )?;
    Ok(ExitCode::SUCCESS)
}

/// `sia cache stats|clear` — inspects or empties the packed unit store
/// (opening migrates any legacy one-file-per-unit entries into pack
/// segments first, so the numbers cover everything).
fn cmd_cache(argv: &[String]) -> Result<ExitCode, String> {
    let mut action: Option<String> = None;
    let mut dir = CACHE_DEFAULT_DIR.to_owned();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dir" => {
                dir = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "--dir needs a value".to_owned())?;
            }
            "stats" | "clear" if action.is_none() => action = Some(arg.clone()),
            other => return Err(format!("unknown cache option '{other}'")),
        }
    }
    let store = PackStore::open(&dir);
    match action.as_deref() {
        Some("stats") => {
            let stats = store.stats(CODE_EPOCH);
            println!(
                "cache: {} live entries ({} bytes), {} orphaned entries ({} bytes) in {dir}",
                stats.live_entries, stats.live_bytes, stats.orphaned_entries, stats.orphaned_bytes
            );
        }
        Some("clear") => {
            let removed = store.clear().map_err(|e| format!("clearing {dir}: {e}"))?;
            println!("cache: removed {removed} entries from {dir}");
        }
        _ => return Err("cache needs an action: stats or clear".into()),
    }
    Ok(ExitCode::SUCCESS)
}

/// `sia serve` — the long-running grid daemon (see
/// `si_harness::serve` for the endpoint table).
fn cmd_serve(argv: &[String]) -> Result<ExitCode, String> {
    let mut addr = "127.0.0.1:8787".to_owned();
    let mut threads = default_threads();
    let mut seed = RunConfig::default().seed;
    let mut dir = CACHE_DEFAULT_DIR.to_owned();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr")?,
            "--threads" => threads = parse_threads(&value("--threads")?)?,
            "--seed" => seed = parse_seed(&value("--seed")?)?,
            "--store-dir" => dir = value("--store-dir")?,
            other => return Err(format!("unknown serve option '{other}'")),
        }
    }
    let engine = Engine::with_cache(threads, CODE_EPOCH, &dir);
    let handle = si_harness::serve::start(&addr, engine, seed)?;
    install_shutdown_signals(&handle.shutdown);
    println!(
        "serve: listening on http://{} (store: {dir}, threads: {threads}) — SIGTERM/SIGINT to stop",
        handle.addr
    );
    handle.join();
    println!("serve: shut down cleanly");
    Ok(ExitCode::SUCCESS)
}

/// Routes SIGTERM and SIGINT into the daemon's shutdown flag, so a
/// signalled `sia serve` drains connections, flushes the store, and
/// exits 0 instead of dying mid-write. Raw `signal(2)` keeps this
/// dependency-free (std already links libc); the handler body is
/// async-signal-safe (one atomic store).
#[cfg(unix)]
fn install_shutdown_signals(flag: &std::sync::Arc<std::sync::atomic::AtomicBool>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};
    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    let _ = FLAG.set(Arc::clone(flag));
    extern "C" fn on_signal(_signum: i32) {
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_shutdown_signals(_flag: &std::sync::Arc<std::sync::atomic::AtomicBool>) {}

/// Expands report paths: a directory yields its `*.json` files sorted by
/// name; a file yields itself. Returns `(stem, parsed document)` pairs.
fn collect_docs(paths: &[String]) -> Result<Vec<(String, Json)>, String> {
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for p in paths {
        let path = std::path::Path::new(p);
        if path.is_dir() {
            let mut inside: Vec<_> = std::fs::read_dir(path)
                .map_err(|e| format!("reading {p}: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|f| f.extension().is_some_and(|x| x == "json"))
                .collect();
            inside.sort();
            files.extend(inside);
        } else {
            files.push(path.to_owned());
        }
    }
    if files.is_empty() {
        return Err("no result files to report on".into());
    }
    let mut docs = Vec::with_capacity(files.len());
    for f in files {
        let stem = f
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("result")
            .to_owned();
        let text =
            std::fs::read_to_string(&f).map_err(|e| format!("reading {}: {e}", f.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        docs.push((stem, doc));
    }
    Ok(docs)
}

fn cmd_report(argv: &[String]) -> Result<ExitCode, String> {
    let mut paths: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut update: Option<String> = None;
    let mut check: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out")?),
            "--update" => update = Some(value("--update")?),
            "--check" => check = Some(value("--check")?),
            flag if flag.starts_with('-') => return Err(format!("unknown report option '{flag}'")),
            path => paths.push(path.to_owned()),
        }
    }
    if paths.is_empty() {
        paths.push("results".to_owned());
    }
    let docs = collect_docs(&paths)?;
    let generated = render_report(&docs)?;
    if let Some(target) = &update {
        let text = std::fs::read_to_string(target).map_err(|e| format!("reading {target}: {e}"))?;
        let spliced = splice_report(&text, &generated)?;
        std::fs::write(target, &spliced).map_err(|e| format!("writing {target}: {e}"))?;
        println!("report: updated {target} ({} sections)", docs.len());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(target) = &check {
        let text = std::fs::read_to_string(target).map_err(|e| format!("reading {target}: {e}"))?;
        let spliced = splice_report(&text, &generated)?;
        if spliced != text {
            eprintln!(
                "report: {target} has drifted from the committed results — the region between \
                 '{REPORT_BEGIN}' and '{REPORT_END}' no longer matches `sia report`.\n\
                 Regenerate with: sia report {} --update {target}",
                paths.join(" ")
            );
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "report: {target} matches the committed results ({} sections)",
            docs.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    match &out {
        Some(file) => {
            std::fs::write(file, &generated).map_err(|e| format!("writing {file}: {e}"))?;
            println!("report: wrote {file} ({} sections)", docs.len());
        }
        None => print!("{generated}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `sia trace` — record, inspect, and replay `.sit` traces.
fn cmd_trace(argv: &[String]) -> Result<ExitCode, String> {
    use si_cpu::{GeometryPreset, MachineConfig, NoisePreset, PredictorPreset};
    use si_schemes::SchemeKind;
    use si_trace::{RecordConfig, TraceFile};
    use si_workloads::WorkloadKind;

    fn write_trace(path: &str, bytes: &[u8]) -> Result<(), String> {
        if let Some(dir) = std::path::Path::new(path)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))
    }

    fn load_trace(path: &str) -> Result<(TraceFile, u64), String> {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        let trace = TraceFile::decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
        Ok((trace, TraceFile::content_digest(&bytes)))
    }

    fn summary(trace: &TraceFile, digest: u64) -> String {
        format!(
            "instr={} branches={} accesses={} interval={} intervals={} reps={} digest={digest:#018x}",
            trace.total_instr,
            trace.branches.len(),
            trace.accesses.len(),
            trace.samples.interval_len,
            trace.samples.n_intervals,
            trace.samples.reps.len(),
        )
    }

    let sub = argv
        .first()
        .map(String::as_str)
        .ok_or("trace needs a subcommand: record, replay, info, example")?;
    let rest = &argv[1..];
    match sub {
        "record" => {
            let mut workload: Option<String> = None;
            let mut scale = 48usize;
            let mut seed = 42u64;
            let mut cfg = RecordConfig {
                interval_len: 1024,
                max_clusters: 8,
                ..RecordConfig::default()
            };
            let mut out: Option<String> = None;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match arg.as_str() {
                    "--workload" => workload = Some(value("--workload")?),
                    "--scale" => {
                        scale = value("--scale")?
                            .parse()
                            .map_err(|e| format!("--scale: {e}"))?
                    }
                    "--seed" => seed = parse_seed(&value("--seed")?)?,
                    "--interval" => {
                        cfg.interval_len = value("--interval")?
                            .parse()
                            .map_err(|e| format!("--interval: {e}"))?
                    }
                    "--clusters" => {
                        cfg.max_clusters = value("--clusters")?
                            .parse()
                            .map_err(|e| format!("--clusters: {e}"))?
                    }
                    "--warmup" => {
                        cfg.warmup_intervals = value("--warmup")?
                            .parse()
                            .map_err(|e| format!("--warmup: {e}"))?
                    }
                    "--out" => out = Some(value("--out")?),
                    other => return Err(format!("unknown trace record option '{other}'")),
                }
            }
            let label = workload.ok_or("trace record needs --workload <kernel>")?;
            let kind =
                WorkloadKind::parse(&label).ok_or_else(|| format!("unknown workload '{label}'"))?;
            if matches!(kind, WorkloadKind::Trace(_)) {
                return Err(format!(
                    "'{label}' is already a trace workload; record from a kernel"
                ));
            }
            let path = out.unwrap_or_else(|| format!("traces/{label}.sit"));
            let start = Instant::now();
            let trace =
                si_trace::record(&kind.program(scale, seed), &cfg).map_err(|e| e.to_string())?;
            let bytes = trace.encode();
            write_trace(&path, &bytes)?;
            let digest = TraceFile::content_digest(&bytes);
            println!(
                "trace:record     ok  {:>7}ms  {} bytes  {}  -> {}",
                start.elapsed().as_millis(),
                bytes.len(),
                summary(&trace, digest),
                path
            );
            Ok(ExitCode::SUCCESS)
        }
        "example" => {
            let mut out = "traces/example.sit".to_owned();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--out" => {
                        out = it
                            .next()
                            .cloned()
                            .ok_or_else(|| "--out needs a value".to_owned())?
                    }
                    other => return Err(format!("unknown trace example option '{other}'")),
                }
            }
            let trace = si_trace::example_trace();
            let bytes = trace.encode();
            write_trace(&out, &bytes)?;
            println!(
                "trace:example    ok  {} bytes  {}  -> {}",
                bytes.len(),
                summary(&trace, TraceFile::content_digest(&bytes)),
                out
            );
            Ok(ExitCode::SUCCESS)
        }
        "info" => {
            let path = rest.first().ok_or("trace info needs a file path")?.as_str();
            let (trace, digest) = load_trace(path)?;
            println!("trace:info       ok  {}  {}", summary(&trace, digest), path);
            Ok(ExitCode::SUCCESS)
        }
        "replay" => {
            let path = rest
                .first()
                .ok_or("trace replay needs a file path")?
                .as_str();
            let mut scheme = SchemeKind::Unprotected;
            let mut predictor = PredictorPreset::Tage;
            let mut full = false;
            let mut budget = 30_000_000u64;
            let mut no_artifact_cache = false;
            let mut it = rest[1..].iter();
            while let Some(arg) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match arg.as_str() {
                    "--scheme" => {
                        let v = value("--scheme")?;
                        scheme = parse_scheme(&v).ok_or_else(|| format!("unknown scheme '{v}'"))?;
                    }
                    "--predictor" => {
                        let v = value("--predictor")?;
                        predictor = PredictorPreset::parse(&v)
                            .ok_or_else(|| format!("unknown predictor '{v}'"))?;
                    }
                    "--full" => full = true,
                    "--budget" => {
                        budget = value("--budget")?
                            .parse()
                            .map_err(|e| format!("--budget: {e}"))?
                    }
                    "--no-artifact-cache" => no_artifact_cache = true,
                    other => return Err(format!("unknown trace replay option '{other}'")),
                }
            }
            let (trace, digest) = load_trace(path)?;
            let config = MachineConfig::from_presets(
                GeometryPreset::KabyLake,
                NoisePreset::Quiet,
                predictor,
            );
            ArtifactCache::global().set_enabled(!no_artifact_cache);
            let start = Instant::now();
            let out = if full {
                si_trace::replay_full(&trace, &config, scheme.build(), budget)
            } else {
                si_workloads::replay_trace_cached(&trace, digest, scheme, &config, budget)
            }
            .map_err(|e| e.to_string())?;
            println!(
                "trace:replay     ok  {:>7}ms  mode={} cycles={} simulated={} intervals={}  {}",
                start.elapsed().as_millis(),
                if full { "full" } else { "sampled" },
                out.cycles,
                out.simulated_instr,
                out.intervals_run,
                path
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown trace subcommand '{other}' (subcommands: record, replay, info, example)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("trace") => cmd_trace(&argv[1..]).unwrap_or_else(|e| {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }),
        Some("sweep") => cmd_sweep(&argv[1..]).unwrap_or_else(|e| {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }),
        Some("attack") => cmd_attack(&argv[1..]).unwrap_or_else(|e| {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }),
        Some("scan") => cmd_scan(&argv[1..]).unwrap_or_else(|e| {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }),
        Some("serve") => cmd_serve(&argv[1..]).unwrap_or_else(|e| {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }),
        Some("cache") => cmd_cache(&argv[1..]).unwrap_or_else(|e| {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }),
        Some("report") => cmd_report(&argv[1..]).unwrap_or_else(|e| {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }),
        Some("run") => match parse_args(&argv[1..]) {
            Ok(args) => cmd_run(&args),
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("-h" | "--help" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command '{other}'\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
