//! Grid jobs: the one path from a request to a runnable job.
//!
//! `sia sweep|attack|scan` and `sia serve`'s `POST /v1/sweep|attack|scan`
//! both translate their input — argv flags ([`Request::accept_flag`]) or
//! JSON body keys ([`Request::accept_key`]) — into a [`Request`], and
//! [`Job::build`] turns that into a validated [`Job`]. Which settings a
//! verb takes, its default grid, the order the settings apply in, and
//! every bound live here once, so a served document is byte-identical to
//! the offline verb's by construction.

use crate::attack::{run_attack_grid, AttackGrid};
use crate::json::Json;
use crate::scan::{run_scan, ScanJob};
use crate::sweep::{run_sweep, GridSpec};
use crate::{Engine, ExecStats, DEFAULT_SEED};

/// The most units one job may flatten into — over a thousand times the
/// largest named grid (attack `full`: 672 units). A request past it (a
/// typo'd or hostile `trials`) is an error before anything allocates.
pub const MAX_UNITS: usize = 1 << 20;

/// A grid verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `sia sweep`, `POST /v1/sweep`.
    Sweep,
    /// `sia attack`, `POST /v1/attack`.
    Attack,
    /// `sia scan`, `POST /v1/scan`.
    Scan,
}

impl Verb {
    /// Every verb, in CLI order.
    pub const ALL: [Verb; 3] = [Verb::Sweep, Verb::Attack, Verb::Scan];

    /// The CLI subcommand, the `/v1/<name>` path, and the output stem's
    /// prefix.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Sweep => "sweep",
            Verb::Attack => "attack",
            Verb::Scan => "scan",
        }
    }

    /// Looks a verb up by [`Verb::name`].
    pub fn parse(name: &str) -> Option<Verb> {
        Verb::ALL.into_iter().find(|v| v.name() == name)
    }

    /// The settings this verb takes, by body key, in documentation order.
    pub fn settings(self) -> &'static [&'static str] {
        match self {
            Verb::Sweep => &["grid", "quick", "filters", "scale", "trials", "seed"],
            Verb::Attack => &[
                "grid",
                "quick",
                "filters",
                "trials",
                "no_checkpoint",
                "seed",
            ],
            Verb::Scan => &["quick", "trials", "horizon", "seed"],
        }
    }
}

/// Parses a seed: decimal or `0x`-prefixed hex. The one seed syntax of
/// every `--seed` flag and of a `"seed"` string in a request body.
pub fn parse_seed(text: &str) -> Result<u64, String> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
    .map_err(|e| format!("seed '{text}': {e} (decimal or 0x-hex)"))
}

/// The job-level settings of one grid request. `None` means "not
/// given": the verb's default applies, and [`Job::build`] rejects a
/// given setting the verb does not take.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request {
    /// Named grid (default: `defense` for sweep, `headline` for attack).
    pub grid: Option<String>,
    /// Shrink to the CI-smoke shape (applied before everything else).
    pub quick: bool,
    /// `axis=v1,v2,…` filters, applied in order.
    pub filters: Option<Vec<String>>,
    /// Workload problem scale.
    pub scale: Option<usize>,
    /// Trials (secret bits) per cell.
    pub trials: Option<usize>,
    /// Scan window horizon in instructions; must be at least 1.
    pub horizon: Option<usize>,
    /// Run every attack trial from scratch instead of from the cell's
    /// checkpoint.
    pub no_checkpoint: Option<bool>,
    /// Base seed (default [`DEFAULT_SEED`]).
    pub seed: Option<u64>,
}

impl Request {
    /// Applies one `sia sweep|attack|scan` argument if it is a job
    /// setting (`value` pulls the flag's value) and returns whether it
    /// was. Which verb takes which setting is [`Job::build`]'s call.
    pub fn accept_flag(
        &mut self,
        arg: &str,
        value: &mut dyn FnMut(&str) -> Result<String, String>,
    ) -> Result<bool, String> {
        let mut count =
            || -> Result<usize, String> { value(arg)?.parse().map_err(|e| format!("{arg}: {e}")) };
        match arg {
            "--quick" => self.quick = true,
            "--scale" => self.scale = Some(count()?),
            "--trials" => self.trials = Some(count()?),
            "--horizon" => self.horizon = Some(count()?),
            "--no-checkpoint" => self.no_checkpoint = Some(true),
            "--grid" => self.grid = Some(value(arg)?),
            "--filter" => self.filters.get_or_insert_with(Vec::new).push(value(arg)?),
            "--seed" => self.seed = Some(parse_seed(&value(arg)?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Applies one key of a grid-POST body and returns whether it is a
    /// job setting. A seed may be a JSON integer or a [`parse_seed`]
    /// string.
    pub fn accept_key(&mut self, key: &str, value: &Json) -> Result<bool, String> {
        let text = |v: &Json| match v {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(format!("'{key}' must be a string")),
        };
        let flag = || match value {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("'{key}' must be a boolean")),
        };
        let count = || match value {
            Json::U64(n) => Ok(*n as usize),
            Json::I64(n) if *n >= 0 => Ok(*n as usize),
            _ => Err(format!("'{key}' must be a non-negative integer")),
        };
        match key {
            "grid" => self.grid = Some(text(value)?),
            "quick" => self.quick = flag()?,
            "filters" => {
                let Json::Arr(items) = value else {
                    return Err(format!("'{key}' must be an array of strings"));
                };
                let filters = self.filters.get_or_insert_with(Vec::new);
                for item in items {
                    filters.push(text(item)?);
                }
            }
            "scale" => self.scale = Some(count()?),
            "trials" => self.trials = Some(count()?),
            "horizon" => self.horizon = Some(count()?),
            "no_checkpoint" => self.no_checkpoint = Some(flag()?),
            "seed" => {
                self.seed = Some(match value {
                    Json::U64(n) => *n,
                    Json::I64(n) if *n >= 0 => *n as u64,
                    Json::Str(s) => parse_seed(s)?,
                    _ => return Err("'seed' must be an integer or a decimal/0x-hex string".into()),
                })
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// A validated grid job: the spec plus the seed it runs under.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    Sweep { grid: GridSpec, seed: u64 },
    Attack { grid: AttackGrid, seed: u64 },
    Scan { job: ScanJob, seed: u64 },
}

impl Job {
    /// Builds `verb`'s job from `request`: the verb's default grid, then
    /// `quick`, the filters, `scale`, `trials` and `horizon` in that
    /// order. A setting the verb does not take, a zero horizon, and a job
    /// of more than [`MAX_UNITS`] units are errors.
    pub fn build(verb: Verb, request: &Request) -> Result<Job, String> {
        let given = [
            ("grid", request.grid.is_some()),
            ("filters", request.filters.is_some()),
            ("scale", request.scale.is_some()),
            ("horizon", request.horizon.is_some()),
            ("no_checkpoint", request.no_checkpoint.is_some()),
        ];
        if let Some((key, _)) = given
            .into_iter()
            .find(|(key, set)| *set && !verb.settings().contains(key))
        {
            return Err(format!(
                "{} takes no '{key}' (its settings: {})",
                verb.name(),
                verb.settings().join(", ")
            ));
        }
        if request.horizon == Some(0) {
            return Err("horizon needs a window depth of at least 1".into());
        }
        let filters = request.filters.as_deref().unwrap_or_default();
        let seed = request.seed.unwrap_or(DEFAULT_SEED);
        let job = match verb {
            Verb::Sweep => {
                let mut grid = GridSpec::named(request.grid.as_deref().unwrap_or("defense"))?;
                if request.quick {
                    grid.quick();
                }
                for f in filters {
                    grid.apply_filter(f)?;
                }
                if let Some(s) = request.scale {
                    grid.scale = s;
                }
                if let Some(t) = request.trials {
                    grid.trials = t;
                }
                Job::Sweep { grid, seed }
            }
            Verb::Attack => {
                let mut grid = AttackGrid::named(request.grid.as_deref().unwrap_or("headline"))?;
                if request.quick {
                    grid.quick();
                }
                for f in filters {
                    grid.apply_filter(f)?;
                }
                if let Some(t) = request.trials {
                    grid.trials = t;
                }
                grid.disable_checkpoint = request.no_checkpoint.unwrap_or(false);
                Job::Attack { grid, seed }
            }
            Verb::Scan => {
                let mut job = ScanJob::standard();
                if request.quick {
                    job.quick();
                }
                if let Some(t) = request.trials {
                    job.trials = t;
                }
                if let Some(h) = request.horizon {
                    job.horizon = h;
                }
                Job::Scan { job, seed }
            }
        };
        match job.unit_count() {
            Some(n) if n <= MAX_UNITS => Ok(job),
            n => Err(format!(
                "{} would run {} units, over the cap of {MAX_UNITS}",
                job.stem(),
                n.map_or(format!("more than {}", usize::MAX), |n| n.to_string())
            )),
        }
    }

    /// The verb this job belongs to.
    pub fn verb(&self) -> Verb {
        match self {
            Job::Sweep { .. } => Verb::Sweep,
            Job::Attack { .. } => Verb::Attack,
            Job::Scan { .. } => Verb::Scan,
        }
    }

    /// The grid's name (`corpus` for the scan): the status-line label.
    pub fn name(&self) -> &str {
        match self {
            Job::Sweep { grid, .. } => &grid.name,
            Job::Attack { grid, .. } => &grid.name,
            Job::Scan { .. } => "corpus",
        }
    }

    /// The output stem the offline verb writes (`sweep-defense`,
    /// `scan-corpus`, …), which also anchors the markdown rendering.
    pub fn stem(&self) -> String {
        format!("{}-{}", self.verb().name(), self.name())
    }

    /// Units the job flattens into; `None` when that overflows `usize`.
    pub fn unit_count(&self) -> Option<usize> {
        match self {
            Job::Sweep { grid, .. } => grid.unit_count(),
            Job::Attack { grid, .. } => grid.unit_count(),
            Job::Scan { job, .. } => job.unit_count(),
        }
    }

    /// Runs the job through `engine`: the result document plus the
    /// engine's executed/cached split.
    pub fn run(&self, engine: &Engine) -> Result<(Json, ExecStats), String> {
        match self {
            Job::Sweep { grid, seed } => run_sweep(grid, *seed, engine),
            Job::Attack { grid, seed } => run_attack_grid(grid, *seed, engine),
            Job::Scan { job, seed } => run_scan(job, *seed, engine),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{parse_job, ENDPOINTS};

    /// Builds a job from argv the way `sia sweep|attack|scan` does.
    fn from_argv(verb: Verb, argv: &[&str]) -> Result<Job, String> {
        let mut request = Request::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .map(|v| v.to_string())
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            if !request.accept_flag(arg, &mut value)? {
                return Err(format!("unknown option '{arg}'"));
            }
        }
        Job::build(verb, &request)
    }

    /// Builds a job from a POST body the way `sia serve` does.
    fn from_body(verb: Verb, body: &str) -> Result<Job, String> {
        parse_job(verb, body.as_bytes(), DEFAULT_SEED)
    }

    #[test]
    fn argv_and_body_with_the_same_settings_build_the_same_job() {
        let cases: [(Verb, &[&str], &str); 9] = [
            (Verb::Sweep, &[], ""),
            (
                Verb::Sweep,
                &[
                    "--grid",
                    "geometry",
                    "--quick",
                    "--filter",
                    "scheme=dom",
                    "--filter",
                    "workload=ptr-chase",
                    "--scale",
                    "8",
                    "--trials",
                    "2",
                    "--seed",
                    "42",
                ],
                r#"{"grid": "geometry", "quick": true, "scale": 8, "trials": 2, "seed": 42,
                    "filters": ["scheme=dom", "workload=ptr-chase"]}"#,
            ),
            (Verb::Sweep, &["--seed", "0x2a"], r#"{"seed": "42"}"#),
            (Verb::Attack, &[], "{}"),
            (
                Verb::Attack,
                &[
                    "--grid",
                    "noise",
                    "--quick",
                    "--trials",
                    "4",
                    "--filter",
                    "variant=mshr-pressure",
                    "--no-checkpoint",
                    "--seed",
                    "0x51A02022",
                ],
                r#"{"grid": "noise", "quick": true, "trials": 4, "filters": ["variant=mshr-pressure"],
                    "no_checkpoint": true, "seed": "0x51A02022"}"#,
            ),
            (
                Verb::Attack,
                &["--quick", "--trials", "3"],
                r#"{"trials": 3, "quick": true}"#,
            ),
            (Verb::Scan, &[], ""),
            (
                Verb::Scan,
                &["--quick", "--trials", "3", "--horizon", "64", "--seed", "7"],
                r#"{"quick": true, "trials": 3, "horizon": 64, "seed": "0x7"}"#,
            ),
            (
                Verb::Scan,
                &["--horizon", "16", "--seed", "0x7"],
                r#"{"horizon": 16, "seed": 7}"#,
            ),
        ];
        for (verb, argv, body) in cases {
            let cli = from_argv(verb, argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
            let served = from_body(verb, body).unwrap_or_else(|e| panic!("{body}: {e}"));
            assert_eq!(cli, served, "{argv:?} vs {body}");
            assert_eq!(cli.verb(), verb);
            let defaults = Job::build(verb, &Request::default()).expect("defaults build");
            assert_eq!(argv.is_empty(), cli == defaults, "{argv:?}");
        }
    }

    #[test]
    fn settings_apply_in_order_over_the_verb_defaults() {
        // `quick` first, so an explicit trial count wins over its shrink.
        let Job::Attack { grid, seed } = from_argv(
            Verb::Attack,
            &["--trials", "3", "--quick", "--seed", "0x2a"],
        )
        .unwrap() else {
            panic!("attack verb built another job");
        };
        assert_eq!((grid.name.as_str(), grid.trials, seed), ("headline", 3, 42));
        let Job::Sweep { grid, .. } =
            from_body(Verb::Sweep, r#"{"quick": true, "scale": 8}"#).expect("sweep builds")
        else {
            panic!("sweep verb built another job");
        };
        assert_eq!(
            (grid.name.as_str(), grid.scale, grid.trials),
            ("defense", 8, 1)
        );
        let Job::Scan { job, seed } = from_body(Verb::Scan, "").expect("scan builds") else {
            panic!("scan verb built another job");
        };
        assert_eq!((job, seed), (ScanJob::standard(), DEFAULT_SEED));
    }

    #[test]
    fn each_verb_rejects_the_settings_it_does_not_take() {
        let gated: [(&str, &[&str], &str); 6] = [
            ("grid", &["--grid", "defense"], r#"{"grid": "defense"}"#),
            ("filters", &["--filter", "scheme=dom"], r#"{"filters": []}"#),
            ("scale", &["--scale", "8"], r#"{"scale": 8}"#),
            ("horizon", &["--horizon", "8"], r#"{"horizon": 8}"#),
            (
                "no_checkpoint",
                &["--no-checkpoint"],
                r#"{"no_checkpoint": true}"#,
            ),
            (
                "no_checkpoint",
                &["--no-checkpoint"],
                r#"{"no_checkpoint": false}"#,
            ),
        ];
        let mut rejected = 0;
        for verb in Verb::ALL {
            for (key, argv, body) in gated {
                if verb.settings().contains(&key) {
                    continue;
                }
                for outcome in [from_argv(verb, argv), from_body(verb, body)] {
                    let e = outcome.expect_err(key);
                    assert!(
                        e.contains(&format!("takes no '{key}'")),
                        "{verb:?} {key}: {e}"
                    );
                }
                rejected += 1;
            }
        }
        // scale on attack and scan; grid, filters and no_checkpoint (twice)
        // on scan; horizon on sweep and attack; no_checkpoint (twice) on sweep.
        assert_eq!(rejected, 10);
    }

    #[test]
    fn bad_values_are_errors() {
        for (verb, argv, body) in [
            (Verb::Scan, &["--horizon", "0"][..], r#"{"horizon": 0}"#),
            (Verb::Sweep, &["--seed", "0xzz"], r#"{"seed": "0xzz"}"#),
            (Verb::Sweep, &["--trials", "-1"], r#"{"trials": -1}"#),
            (Verb::Sweep, &["--grid", "nope"], r#"{"grid": "nope"}"#),
            (
                Verb::Attack,
                &["--filter", "planet=mars"],
                r#"{"filters": ["planet=mars"]}"#,
            ),
        ] {
            assert!(from_argv(verb, argv).is_err(), "{argv:?}");
            assert!(from_body(verb, body).is_err(), "{body}");
        }
        assert!(from_body(Verb::Sweep, r#"{"seed": true}"#).is_err());
        assert!(from_body(Verb::Sweep, r#"{"trails": 3}"#).is_err());
    }

    #[test]
    fn jobs_past_the_unit_cap_are_errors_naming_both_numbers() {
        // The quick headline grid has 8 schemes × 2 variants = 16 cells.
        let at_cap = (MAX_UNITS / 16).to_string();
        let job = from_argv(Verb::Attack, &["--trials", &at_cap]).expect("at the cap");
        assert_eq!(job.unit_count(), Some(MAX_UNITS));
        let over = (MAX_UNITS / 16 + 1).to_string();
        let e = from_argv(Verb::Attack, &["--trials", &over]).expect_err("over the cap");
        assert!(e.contains(&(MAX_UNITS + 16).to_string()), "{e}");
        assert!(e.contains(&MAX_UNITS.to_string()), "{e}");
        for verb in Verb::ALL {
            let huge = "9223372036854775808";
            let e = from_argv(verb, &["--trials", huge]).expect_err("huge trials");
            assert!(e.contains("more than") || e.contains("units"), "{e}");
            assert!(e.contains(&MAX_UNITS.to_string()), "{e}");
            let body = format!(r#"{{"trials": {huge}}}"#);
            assert!(from_body(verb, &body).is_err(), "{verb:?}");
        }
    }

    #[test]
    fn documented_body_keys_are_the_verb_settings() {
        let readme = include_str!("../../../README.md");
        let serve_source = include_str!("serve.rs");
        let row = |text: &'static str, verb: Verb| {
            let path = format!("/v1/{}", verb.name());
            text.lines()
                .find(|l| l.contains(&format!("`{path}`")) || l.contains(&format!("POST {path} ")))
                .unwrap_or_else(|| panic!("no {path} row"))
        };
        for verb in Verb::ALL {
            let keys: Vec<String> = verb.settings().iter().map(|k| format!("\"{k}\"")).collect();
            let compact = format!("{{{}}}", keys.join(","));
            let spaced = format!("{{{}}}", keys.join(", "));
            assert!(
                row(ENDPOINTS, verb).contains(&compact),
                "ENDPOINTS {verb:?}"
            );
            assert!(
                row(serve_source, verb).contains(&compact),
                "serve.rs {verb:?}"
            );
            assert!(row(readme, verb).contains(&spaced), "README {verb:?}");
        }
    }
}
