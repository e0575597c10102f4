//! Per-layer metrics, derived from the traced run's spans and unit
//! records. A layer that does no work on a workload reports 0.

use std::collections::HashMap;

use si_engine::{ArtifactStats, ExecStats};

use crate::replica::{SimCounts, UnitRecord};
use crate::spans::{self, Span};
use crate::stats::median;

/// Scheme columns of the defense sweeps, for `schemes.ns_per_cycle.*`.
pub const SWEEP_SCHEMES: [&str; 5] = [
    "unprotected",
    "dom",
    "fence",
    "fence-futuristic",
    "advanced",
];

/// Spans that simulate cycles on the out-of-order core.
const SIM_SPANS: [&str; 2] = ["cpu.run_core_to_halt", "trace.run_interval"];

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Default)]
pub struct TracedRun {
    pub spans: Vec<Span>,
    /// Replayed units of every traced pass.
    pub units: Vec<UnitRecord>,
    pub traced_passes: usize,
    /// Static scan findings per pass.
    pub findings: usize,
    /// `.sit` bytes decoded per pass.
    pub decoded_bytes: usize,
    /// Median untraced and traced pass seconds.
    pub grid_s: f64,
    pub traced_grid_s: f64,
    pub threads: usize,
    /// Engine split over every pass of the run.
    pub exec: ExecStats,
    /// Artifact-cache counters after the last untraced pass.
    pub artifacts: Vec<ArtifactStats>,
    /// Records in the filled store, and host seconds of the fill.
    pub store_records: usize,
    pub store_fill_s: f64,
    /// Rendered document bytes per pass.
    pub doc_bytes: usize,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl TracedRun {
    /// Every per-layer metric as `(name, unit, value)`.
    pub fn metrics(&self) -> Vec<(String, &'static str, f64)> {
        let mut by_name: HashMap<&str, Vec<&Span>> = HashMap::new();
        for s in &self.spans {
            by_name.entry(s.name).or_default().push(s);
        }
        let spans_of = |name: &str| by_name.get(name).map_or(&[][..], Vec::as_slice);
        let total_ns =
            |name: &str| spans_of(name).iter().map(|s| s.duration_ns()).sum::<u64>() as f64;
        let median_ns = |name: &str| {
            let d: Vec<f64> = spans_of(name)
                .iter()
                .map(|s| s.duration_ns() as f64)
                .collect();
            median(&d)
        };
        let tagged_ns = |tag: &str| {
            SIM_SPANS
                .iter()
                .flat_map(|n| spans_of(n))
                .filter(|s| s.tag == Some(tag))
                .map(|s| s.duration_ns())
                .sum::<u64>() as f64
        };
        let sum = |f: &dyn Fn(&SimCounts) -> u64, scheme: Option<&str>| {
            self.units
                .iter()
                .filter(|u| scheme.is_none_or(|s| u.scheme == s))
                .map(|u| f(&u.counts))
                .sum::<u64>() as f64
        };
        let passes = self.traced_passes.max(1) as f64;
        let per_pass = |v: f64| v / passes;
        let sim_ns: f64 = SIM_SPANS.iter().map(|n| total_ns(n)).sum();
        let sim_cycles = sum(&|c| c.sim_cycles, None);
        let retired = sum(&|c| c.retired, None);
        let l1d = sum(&|c| c.l1d_hits + c.l1d_misses, None);
        let llc = sum(&|c| c.llc_hits + c.llc_misses, None);
        let serial_ns =
            total_ns("workloads.run") + total_ns("attack.prepare") + total_ns("attack.trial");
        let hit_frac = |ns: &str| {
            self.artifacts
                .iter()
                .find(|a| a.namespace == ns)
                .map_or(0.0, |a| ratio(a.hits as f64, (a.hits + a.misses) as f64))
        };

        let mut out: Vec<(String, &'static str, f64)> = vec![
            (
                "isa.interp_ns_per_instr".into(),
                "ns",
                ratio(total_ns("isa.interp"), sum(&|c| c.interp_retired, None)),
            ),
            (
                "isa.program_build_us".into(),
                "us",
                median_ns("isa.program_build") / 1e3,
            ),
            ("cpu.ns_per_cycle".into(), "ns", ratio(sim_ns, sim_cycles)),
            ("cpu.ns_per_retired".into(), "ns", ratio(sim_ns, retired)),
            (
                "cpu.machine_new_us".into(),
                "us",
                median_ns("cpu.machine_new") / 1e3,
            ),
            ("cpu.ipc".into(), "ratio", ratio(retired, sim_cycles)),
            (
                "cpu.squashed_frac".into(),
                "ratio",
                ratio(
                    sum(&|c| c.squashed_instrs, None),
                    sum(&|c| c.dispatched, None),
                ),
            ),
        ];
        for scheme in SWEEP_SCHEMES {
            let cycles = sum(&|c| c.sim_cycles, Some(scheme));
            out.push((
                format!("schemes.ns_per_cycle.{scheme}"),
                "ns",
                ratio(tagged_ns(scheme), cycles),
            ));
        }
        out.extend([
            (
                "schemes.delayed_loads".into(),
                "count",
                per_pass(sum(&|c| c.delayed_loads, None)),
            ),
            (
                "schemes.defense_issue_stalls".into(),
                "count",
                per_pass(sum(&|c| c.defense_issue_stalls, None)),
            ),
            ("cache.l1d_accesses".into(), "count", per_pass(l1d)),
            (
                "cache.l1d_hit_rate".into(),
                "ratio",
                ratio(sum(&|c| c.l1d_hits, None), l1d),
            ),
            ("cache.llc_accesses".into(), "count", per_pass(llc)),
            (
                "cache.llc_hit_rate".into(),
                "ratio",
                ratio(sum(&|c| c.llc_hits, None), llc),
            ),
            (
                "cache.warm_access_ns".into(),
                "ns",
                ratio(total_ns("cache.warm_access"), sum(&|c| c.warm_lines, None)),
            ),
            (
                "core.calibrate_ms".into(),
                "ms",
                median_ns("core.calibrate") / 1e6,
            ),
            (
                "core.checkpoint_trial_ms".into(),
                "ms",
                median_ns("core.checkpoint_trial") / 1e6,
            ),
            (
                "core.trial_from_us".into(),
                "us",
                median_ns("core.trial_from") / 1e3,
            ),
            (
                "attack.prepare_ms".into(),
                "ms",
                median_ns("attack.prepare") / 1e6,
            ),
            (
                "attack.trial_us".into(),
                "us",
                median_ns("attack.trial") / 1e3,
            ),
            (
                "attack.prepare_share".into(),
                "ratio",
                ratio(
                    total_ns("attack.prepare"),
                    total_ns("attack.prepare") + total_ns("attack.trial"),
                ),
            ),
            (
                "scan.static_us".into(),
                "us",
                median_ns("scan.static") / 1e3,
            ),
            ("scan.findings".into(), "count", self.findings as f64),
            (
                "trace.decode_mb_per_s".into(),
                "MB/s",
                ratio(
                    self.decoded_bytes as f64 * passes * 1e3,
                    total_ns("trace.decode"),
                ),
            ),
            ("trace.plan_ms".into(), "ms", median_ns("trace.plan") / 1e6),
            ("trace.warm_ms".into(), "ms", median_ns("trace.warm") / 1e6),
            (
                "trace.checkpoint_ms".into(),
                "ms",
                median_ns("trace.checkpoint") / 1e6,
            ),
            (
                "trace.sim_ns_per_instr".into(),
                "ns",
                // Only the trace workload replays intervals.
                ratio(total_ns("trace.run_interval"), retired),
            ),
            (
                "trace.warm_share".into(),
                "ratio",
                ratio(
                    total_ns("trace.warm") + total_ns("trace.checkpoint"),
                    total_ns("workloads.run"),
                ),
            ),
            (
                "workloads.run_ms".into(),
                "ms",
                median_ns("workloads.run") / 1e6,
            ),
            (
                "engine.parallel_efficiency".into(),
                "ratio",
                ratio(per_pass(serial_ns), self.threads as f64 * self.grid_s * 1e9),
            ),
            (
                "engine.store_open_ms".into(),
                "ms",
                median_ns("engine.store_open") / 1e6,
            ),
            ("engine.store_fill_ms".into(), "ms", self.store_fill_s * 1e3),
            (
                "engine.store_records".into(),
                "count",
                self.store_records as f64,
            ),
            (
                "engine.cached_frac".into(),
                "ratio",
                ratio(self.exec.cached as f64, self.exec.total as f64),
            ),
        ]);
        for ns in ["trace", "plan", "checkpoint", "interval"] {
            out.push((
                format!("engine.artifact_hit_frac.{ns}"),
                "ratio",
                hit_frac(ns),
            ));
        }
        out.extend([
            (
                "harness.render_ms".into(),
                "ms",
                median_ns("harness.render") / 1e6,
            ),
            ("harness.doc_bytes".into(), "bytes", self.doc_bytes as f64),
            (
                "perfbench.trace_overhead".into(),
                "ratio",
                ratio(self.traced_grid_s, self.grid_s),
            ),
            (
                "perfbench.pass_self_ms".into(),
                "ms",
                self.pass_self_ns() / 1e6,
            ),
        ]);
        out
    }

    /// Median self time of the pass spans: pass time that no timed call
    /// covers (dispatch, checks between calls, idle workers).
    fn pass_self_ns(&self) -> f64 {
        let selfs = spans::self_times(&self.spans);
        let pass: Vec<f64> = self
            .spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == "pass")
            .map(|(_, t)| t as f64)
            .collect();
        median(&pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_harness::json::{parse, Json};

    /// `BENCHMARK.json` names exactly the metrics the traced run emits.
    #[test]
    fn per_layer_metrics_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let def = parse(&text).expect("valid JSON");
        let Some(Json::Arr(per_layer)) = def.get("per_layer") else {
            panic!("per_layer list");
        };
        let declared: Vec<(String, String)> = per_layer
            .iter()
            .map(|m| {
                let field = |k| match m.get(k) {
                    Some(Json::Str(s)) => s.clone(),
                    _ => panic!("{k}"),
                };
                (field("name"), field("unit"))
            })
            .collect();
        let emitted: Vec<(String, String)> = TracedRun::default()
            .metrics()
            .into_iter()
            .map(|(name, unit, _)| (name, unit.to_owned()))
            .collect();
        assert_eq!(emitted, declared);
    }
}
