//! The four workloads: their grids, their set-up, and one untraced pass
//! through the real grid verbs.

use std::path::{Path, PathBuf};

use si_engine::{ArtifactCache, ArtifactStats, Engine, ExecStats};
use si_harness::attack::{run_attack_grid, AttackGrid};
use si_harness::json::Json;
use si_harness::scan::{run_scan, ScanJob};
use si_harness::sweep::{run_sweep, GridSpec};
use si_harness::CODE_EPOCH;
use si_workloads::WorkloadKind;

use crate::check::{Doc, Expected, Holds};
use crate::spans::Tracer;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `defense` sweep over the eight synthetic kernels.
    SweepKernels,
    /// The headline attack grid, then the standard scan.
    AttackScan,
    /// The `trace` sweep, whose passes fill the artifact cache cold.
    TraceCold,
    /// The defense sweep, headline attack and scan served from a filled
    /// pack store.
    WarmRerun,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::SweepKernels,
    Workload::AttackScan,
    Workload::TraceCold,
    Workload::WarmRerun,
];

/// Recorded FNV-1a digests of the documents that have no committed
/// fixture, with the header's seed at the default seed.
const DEFENSE_KERNELS_DIGEST: u64 = 0xb21f_afd1_0ab0_30db;
const DEFENSE_DIGEST: u64 = 0xe220_9aa9_a05b_1666;

/// Recorded simulated-statistics digests of the traced runs, the same
/// at every seed because both grids run under quiet noise.
const SWEEP_KERNELS_SIM_DIGEST: u64 = 0xef82_4685_ea0e_3196;
const TRACE_COLD_SIM_DIGEST: u64 = 0xbab2_833e_0cb4_ced1;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepKernels => "sweep-kernels",
            Workload::AttackScan => "attack-scan",
            Workload::TraceCold => "trace-cold",
            Workload::WarmRerun => "warm-rerun",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The grids one pass runs.
    pub fn grids(self) -> Grids {
        let named = |n: &str| GridSpec::named(n).expect("built-in sweep grid");
        let headline = || AttackGrid::named("headline").expect("built-in attack grid");
        match self {
            Workload::SweepKernels => {
                let mut defense = named("defense");
                defense.workloads = WorkloadKind::all();
                Grids {
                    sweep: Some(("sweep-defense-kernels", defense)),
                    attack: None,
                    scan: None,
                }
            }
            Workload::AttackScan => Grids {
                sweep: None,
                attack: Some(headline()),
                scan: Some(ScanJob::standard()),
            },
            Workload::TraceCold => Grids {
                sweep: Some(("sweep-trace", named("trace"))),
                attack: None,
                scan: None,
            },
            Workload::WarmRerun => Grids {
                sweep: Some(("sweep-defense", named("defense"))),
                attack: Some(headline()),
                scan: Some(ScanJob::standard()),
            },
        }
    }

    /// What each document must equal: the committed fixture (read from
    /// the checkout) or a recorded digest. Every grid here runs under
    /// quiet noise, so the sweeps hold at every seed; the attack and
    /// scan draw their secret bits from it.
    pub fn expected(self) -> Vec<(&'static str, Expected, Holds)> {
        let fixture = |name: &'static str, holds| {
            // An unreadable fixture becomes an impossible digest, so the
            // check fails instead of the run.
            let path = format!("results/{name}.json");
            let bytes = std::fs::read(path).map_or(Expected::Digest(0), Expected::Fixture);
            (name, bytes, holds)
        };
        let attack_scan = || {
            [
                fixture("attack-headline", Holds::DefaultSeed),
                fixture("scan-corpus", Holds::DefaultSeed),
            ]
        };
        match self {
            Workload::SweepKernels => vec![(
                "sweep-defense-kernels",
                Expected::Digest(DEFENSE_KERNELS_DIGEST),
                Holds::AnySeed,
            )],
            Workload::AttackScan => attack_scan().into(),
            Workload::TraceCold => vec![fixture("sweep-trace", Holds::AnySeed)],
            Workload::WarmRerun => {
                let defense = Expected::Digest(DEFENSE_DIGEST);
                let mut docs = vec![("sweep-defense", defense, Holds::AnySeed)];
                docs.extend(attack_scan());
                docs
            }
        }
    }

    /// The simulated-statistics digest every traced pass must reproduce,
    /// where it does not depend on the seed.
    pub fn sim_digest(self) -> Option<u64> {
        match self {
            Workload::SweepKernels => Some(SWEEP_KERNELS_SIM_DIGEST),
            Workload::TraceCold => Some(TRACE_COLD_SIM_DIGEST),
            // Secret bits come from the seed; nothing simulates.
            Workload::AttackScan | Workload::WarmRerun => None,
        }
    }
}

/// The grids of one pass, in the order they run.
#[derive(Debug, Clone)]
pub struct Grids {
    pub sweep: Option<(&'static str, GridSpec)>,
    pub attack: Option<AttackGrid>,
    pub scan: Option<ScanJob>,
}

/// The product of one pass.
#[derive(Debug, Clone, Default)]
pub struct PassOutput {
    pub docs: Vec<Doc>,
    pub stats: ExecStats,
    /// Artifact-cache counters after the pass.
    pub artifacts: Vec<ArtifactStats>,
}

/// The pack store set-up filled (warm-rerun only).
#[derive(Debug)]
pub struct StoreFill {
    pub dir: PathBuf,
    /// Records in the store.
    pub records: usize,
    /// Host seconds of the cold grid run that filled it, store writes
    /// and the engine's per-batch flushes included.
    pub fill_s: f64,
}

/// Everything set-up builds, reused by every pass of the run.
#[derive(Debug)]
pub struct State {
    pub grids: Grids,
    pub seed: u64,
    pub threads: usize,
    pub store: Option<StoreFill>,
}

impl State {
    /// Builds the grids and, for warm-rerun, fills a fresh pack store
    /// under `scratch` by running every grid once.
    pub fn setup(
        workload: Workload,
        seed: u64,
        threads: usize,
        scratch: &Path,
    ) -> Result<State, String> {
        let mut state = State {
            grids: workload.grids(),
            seed,
            threads,
            store: None,
        };
        if workload == Workload::WarmRerun {
            let dir = scratch.join("store");
            // A leftover from an interrupted run would make the fill warm.
            let _ = std::fs::remove_dir_all(&dir);
            let start = std::time::Instant::now();
            let engine = Engine::with_cache(threads, CODE_EPOCH, &dir);
            let filled = state.run_grids(&engine, None)?;
            let fill_s = start.elapsed().as_secs_f64();
            if filled.stats.executed != filled.stats.total {
                return Err(format!("store fill was not cold: {:?}", filled.stats));
            }
            let records = engine.store().map_or(0, |s| s.len());
            state.store = Some(StoreFill {
                dir,
                records,
                fill_s,
            });
        }
        Ok(state)
    }

    /// The engine a pass runs on: a plain one, or for warm-rerun a fresh
    /// one opened on the filled store (opening rebuilds its index).
    fn engine(&self, tr: Option<&Tracer>) -> Engine {
        match &self.store {
            Some(store) => timed(tr, "engine.store_open", || {
                Engine::with_cache(self.threads, CODE_EPOCH, &store.dir)
            }),
            None => Engine::new(self.threads),
        }
    }

    /// One pass through the real grid verbs; with a tracer, each verb,
    /// the store open and each render is a span.
    pub fn pass(&self, tr: Option<&Tracer>) -> Result<PassOutput, String> {
        // Every pass starts from the empty artifact cache a fresh `sia`
        // process has; only trace-cold fills it.
        ArtifactCache::global().clear();
        let out = self.run_grids(&self.engine(tr), tr)?;
        if self.store.is_some() && out.stats.executed != 0 {
            return Err(format!("warm pass executed units: {:?}", out.stats));
        }
        Ok(out)
    }

    fn run_grids(&self, engine: &Engine, tr: Option<&Tracer>) -> Result<PassOutput, String> {
        let mut out = PassOutput::default();
        let mut emit = |name: &'static str, (doc, stats): (Json, ExecStats)| {
            out.docs.push(Doc {
                name,
                text: timed(tr, "harness.render", || doc.to_pretty()),
                units: stats.total,
            });
            out.stats.absorb(stats);
        };
        if let Some((name, grid)) = &self.grids.sweep {
            let run = timed(tr, "harness.run_sweep", || {
                run_sweep(grid, self.seed, engine)
            });
            emit(name, run?);
        }
        if let Some(grid) = &self.grids.attack {
            let run = timed(tr, "harness.run_attack_grid", || {
                run_attack_grid(grid, self.seed, engine)
            });
            emit("attack-headline", run?);
        }
        if let Some(job) = &self.grids.scan {
            let run = timed(tr, "harness.run_scan", || run_scan(job, self.seed, engine));
            emit("scan-corpus", run?);
        }
        out.artifacts = ArtifactCache::global().stats();
        Ok(out)
    }
}

/// Runs `f`, as a span when tracing.
pub fn timed<T>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(tr) => tr.span(name, f),
        None => f(),
    }
}
