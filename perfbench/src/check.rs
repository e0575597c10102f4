//! Output checks and failure accounting.
//!
//! Every pass hands its rendered documents to a [`Checker`]. A document
//! is wrong when it differs from the same document of the first pass,
//! when it differs from its committed fixture or recorded digest (at
//! every seed for the quiet-noise sweeps, whose documents differ between
//! seeds only in the header's seed; at the default seed otherwise), or
//! when it breaks the paper's qualitative results:
//! a sweep with failed cells, an attack cell off the leak matrix, or a
//! scan that fails to confirm the paper gadgets. Any wrong document
//! counts every unit of that pass as failed; nothing aborts the run.

use std::borrow::Cow;
use std::collections::HashMap;

use si_engine::digest::fnv64;
use si_harness::json::{parse, Json};

/// The grid seed the committed fixtures were generated with (the `sia`
/// default).
pub const DEFAULT_SEED: u64 = 0x51A0_2021;

/// One rendered result document of a pass.
#[derive(Debug, Clone)]
pub struct Doc {
    pub name: &'static str,
    pub text: String,
    /// Engine units behind the document.
    pub units: usize,
}

/// What a document must equal at [`DEFAULT_SEED`].
#[derive(Debug, Clone)]
pub enum Expected {
    /// The committed fixture's bytes.
    Fixture(Vec<u8>),
    /// The FNV-1a digest of the document, for grids without a fixture.
    Digest(u64),
}

/// At which seeds an [`Expected`] document holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Holds {
    /// Only at [`DEFAULT_SEED`]: the results draw on the seed.
    DefaultSeed,
    /// At every seed, once the header's seed reads [`DEFAULT_SEED`]: a
    /// quiet-noise sweep draws nothing from its seed.
    AnySeed,
}

/// `text` with the header's `"seed": <seed>,` made the default seed's.
fn mask_seed(text: &str, seed: u64) -> Cow<'_, str> {
    if seed == DEFAULT_SEED {
        return Cow::Borrowed(text);
    }
    Cow::Owned(text.replacen(
        &format!("\"seed\": {seed},"),
        &format!("\"seed\": {DEFAULT_SEED},"),
        1,
    ))
}

/// The verdict on one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassCheck {
    pub units: usize,
    pub failed: usize,
    pub problems: Vec<String>,
}

/// Checks every pass of one run against the first pass and the
/// expected documents.
#[derive(Debug)]
pub struct Checker {
    seed: u64,
    expected: HashMap<&'static str, (Expected, Holds)>,
    first: HashMap<&'static str, String>,
}

impl Checker {
    pub fn new(seed: u64, expected: Vec<(&'static str, Expected, Holds)>) -> Checker {
        Checker {
            seed,
            expected: expected
                .into_iter()
                .map(|(name, expected, holds)| (name, (expected, holds)))
                .collect(),
            first: HashMap::new(),
        }
    }

    /// Checks one pass's documents; the first pass seen becomes the
    /// reference for every later one.
    pub fn check_pass(&mut self, docs: &[Doc]) -> PassCheck {
        let mut problems = Vec::new();
        for doc in docs {
            match self.first.get(doc.name) {
                Some(first) if *first != doc.text => {
                    problems.push(format!("{}: differs from the first pass", doc.name));
                }
                Some(_) => {}
                None => {
                    self.first.insert(doc.name, doc.text.clone());
                }
            }
            match self.expected.get(doc.name) {
                Some((expected, holds))
                    if *holds == Holds::AnySeed || self.seed == DEFAULT_SEED =>
                {
                    let text = mask_seed(&doc.text, self.seed);
                    match expected {
                        Expected::Fixture(bytes) if bytes != text.as_bytes() => {
                            problems.push(format!("{}: differs from its fixture", doc.name));
                        }
                        Expected::Digest(d) if *d != fnv64(text.as_bytes()) => {
                            problems.push(format!(
                                "{}: digest {:016x} is not the recorded {d:016x}",
                                doc.name,
                                fnv64(text.as_bytes())
                            ));
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
            if let Err(e) = check_semantics(&doc.text) {
                problems.push(format!("{}: {e}", doc.name));
            }
        }
        let units = docs.iter().map(|d| d.units).sum();
        PassCheck {
            units,
            failed: if problems.is_empty() { 0 } else { units },
            problems,
        }
    }
}

/// The paper's leak matrix for the headline attack grid: fences decode
/// at chance, Delay-on-Miss blocks the MSHR gadget (it issues no
/// speculative misses), and every invisible scheme leaks perfectly.
pub fn expected_accuracy(variant: &str, scheme: &str) -> f64 {
    match (variant, scheme) {
        (_, "fence" | "fence-futuristic") => 0.5,
        ("mshr-pressure", "dom") => 0.5,
        _ => 1.0,
    }
}

pub(crate) fn num(j: Option<&Json>) -> Option<f64> {
    match j? {
        Json::I64(v) => Some(*v as f64),
        Json::U64(v) => Some(*v as f64),
        Json::F64(v) => Some(*v),
        _ => None,
    }
}

pub(crate) fn text(j: Option<&Json>) -> Option<&str> {
    match j? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

pub(crate) fn items(j: Option<&Json>) -> &[Json] {
    match j {
        Some(Json::Arr(a)) => a,
        _ => &[],
    }
}

/// The qualitative results every document must show at any seed.
fn check_semantics(doc_text: &str) -> Result<(), String> {
    let doc = parse(doc_text).map_err(|e| format!("unparsable: {e}"))?;
    let result = doc.get("result");
    match text(doc.get("kind")) {
        Some("sweep") => {
            let errors = num(doc.get("summary").and_then(|s| s.get("errors")));
            if errors != Some(0.0) {
                return Err(format!("sweep reports errors = {errors:?}"));
            }
        }
        Some("attack") => {
            for row in items(result.and_then(|r| r.get("rows"))) {
                let variant = text(row.get("variant")).unwrap_or("?");
                for cell in items(row.get("cells")) {
                    let scheme = text(cell.get("scheme")).unwrap_or("?");
                    let accuracy = num(cell.get("accuracy"));
                    if accuracy != Some(expected_accuracy(variant, scheme)) {
                        return Err(format!(
                            "{variant} under {scheme} decodes at {accuracy:?}, off the leak matrix"
                        ));
                    }
                }
            }
        }
        Some("scan") => {
            let programs = items(result.and_then(|r| r.get("programs")));
            let mut paper = 0;
            for program in programs {
                let name = text(program.get("name")).unwrap_or("?");
                for confirm in items(program.get("confirm")) {
                    let class = text(confirm.get("class")).unwrap_or("?");
                    for cell in items(confirm.get("cells")) {
                        let scheme = text(cell.get("scheme")).unwrap_or("?");
                        let accuracy = num(cell.get("accuracy"));
                        if accuracy != Some(expected_accuracy(class, scheme)) {
                            return Err(format!(
                                "{name}: {class} under {scheme} confirms at {accuracy:?}"
                            ));
                        }
                    }
                }
                if name.starts_with("paper-") {
                    paper += 1;
                    let findings = items(program.get("findings"));
                    let confirmed = findings
                        .iter()
                        .all(|f| text(f.get("status")) == Some("confirmed"));
                    if findings.is_empty() || !confirmed {
                        return Err(format!("paper gadget {name} is not confirmed"));
                    }
                }
            }
            if paper == 0 {
                return Err("no paper gadget in the scan corpus".into());
            }
        }
        other => return Err(format!("unexpected document kind {other:?}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(path: &str) -> String {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        std::fs::read_to_string(format!("{root}/{path}")).expect("committed fixture")
    }

    fn docs() -> Vec<Doc> {
        vec![
            Doc {
                name: "attack-headline",
                text: fixture("results/attack-headline.json"),
                units: 384,
            },
            Doc {
                name: "scan-corpus",
                text: fixture("results/scan-corpus.json"),
                units: 180,
            },
        ]
    }

    fn checker(seed: u64) -> Checker {
        let expected = docs()
            .into_iter()
            .map(|d| {
                let expected = Expected::Fixture(d.text.into_bytes());
                (d.name, expected, Holds::DefaultSeed)
            })
            .collect();
        Checker::new(seed, expected)
    }

    #[test]
    fn committed_fixtures_pass() {
        let mut c = checker(DEFAULT_SEED);
        let verdict = c.check_pass(&docs());
        assert_eq!(verdict.problems, Vec::<String>::new());
        assert_eq!((verdict.units, verdict.failed), (564, 0));
        assert_eq!(c.check_pass(&docs()).failed, 0);
    }

    #[test]
    fn a_doctored_document_fails_every_unit_of_its_pass() {
        let mut c = checker(DEFAULT_SEED);
        let mut doctored = docs();
        // One invisible-scheme cell suddenly decodes at chance.
        doctored[0].text = doctored[0]
            .text
            .replacen("\"accuracy\": 1.0", "\"accuracy\": 0.5", 1);
        let verdict = c.check_pass(&doctored);
        assert_eq!(verdict.failed, 564, "{:?}", verdict.problems);
        assert!(verdict.problems.iter().any(|p| p.contains("fixture")));
        assert!(verdict.problems.iter().any(|p| p.contains("leak matrix")));
    }

    #[test]
    fn later_passes_must_equal_the_first() {
        // Away from the default seed there is no fixture to compare with,
        // so a harmless-looking edit is caught by the first-pass rule.
        let mut c = checker(7);
        assert_eq!(c.check_pass(&docs()).failed, 0);
        let mut edited = docs();
        edited[1].text = edited[1].text.replacen("\"seed\"", "\"seed\" ", 1);
        let verdict = c.check_pass(&edited);
        assert_eq!(verdict.failed, 564);
        assert_eq!(
            verdict.problems,
            ["scan-corpus: differs from the first pass"]
        );
    }

    #[test]
    fn digests_and_sweep_errors_are_checked() {
        let sweep = fixture("results/sweep-trace.json");
        let doc = |text: &str| Doc {
            name: "sweep-trace",
            text: text.to_owned(),
            units: 15,
        };
        let digest = |d| vec![("sweep-trace", Expected::Digest(d), Holds::AnySeed)];
        let mut c = Checker::new(DEFAULT_SEED, digest(fnv64(sweep.as_bytes())));
        assert_eq!(c.check_pass(&[doc(&sweep)]).failed, 0);
        let mut c = Checker::new(DEFAULT_SEED, digest(1));
        assert_eq!(c.check_pass(&[doc(&sweep)]).failed, 15);
        let failing = sweep.replacen("\"errors\": 0", "\"errors\": 1", 1);
        let mut c = Checker::new(3, Vec::new());
        let verdict = c.check_pass(&[doc(&failing)]);
        assert_eq!(verdict.failed, 15);
        assert!(verdict.problems[0].contains("errors"));
    }

    #[test]
    fn quiet_sweeps_are_checked_at_every_seed() {
        // At seed 7 the sweep differs from its fixture only in the
        // header's seed, which the check masks.
        let fixture_text = fixture("results/sweep-trace.json");
        let at_seed_7 =
            fixture_text.replacen(&format!("\"seed\": {DEFAULT_SEED},"), "\"seed\": 7,", 1);
        assert_ne!(at_seed_7, fixture_text);
        let doc = |text: &str| Doc {
            name: "sweep-trace",
            text: text.to_owned(),
            units: 15,
        };
        let expected = || {
            let bytes = Expected::Fixture(fixture_text.clone().into_bytes());
            vec![("sweep-trace", bytes, Holds::AnySeed)]
        };
        assert_eq!(
            Checker::new(7, expected())
                .check_pass(&[doc(&at_seed_7)])
                .failed,
            0
        );
        // A changed cycle count is caught on the first pass, with no
        // earlier pass to compare against.
        let (head, tail) = at_seed_7.split_once("\"mean_cycles\": ").expect("a cell");
        let doctored = format!("{head}\"mean_cycles\": 1{tail}");
        let verdict = Checker::new(7, expected()).check_pass(&[doc(&doctored)]);
        assert_eq!(verdict.failed, 15);
        assert_eq!(verdict.problems, ["sweep-trace: differs from its fixture"]);
        // An attack grid draws its secret bits from the seed, so its
        // fixture holds at the default seed only.
        let attack = fixture("results/attack-headline.json");
        let bytes = Expected::Fixture(b"elsewhere".to_vec());
        let mut c = Checker::new(7, vec![("attack-headline", bytes, Holds::DefaultSeed)]);
        let verdict = c.check_pass(&[Doc {
            name: "attack-headline",
            text: attack,
            units: 384,
        }]);
        assert_eq!(verdict.failed, 0);
    }
}
