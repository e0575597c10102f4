//! The unit graph: a [`UnitSpec`] is the stable, hashable description of
//! one seeded execution unit — the common currency every `sia` verb
//! compiles its grid into before anything runs.
//!
//! A unit is a **pure function of its spec**: same spec, same outcome,
//! whatever thread ran it and whenever. That property is what makes the
//! scheduler free to reorder execution and the cache sound to splice
//! results from a previous process.

use crate::digest::Digest;

/// The stable description of one execution unit.
///
/// Two specs that compare equal must describe byte-identical work; two
/// specs that differ in any field are different units (and hash to
/// different cache keys, up to the 128-bit collision bound — which the
/// cache additionally guards by verifying the canonical line on read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitSpec {
    /// The verb family the unit belongs to (`"sweep"`, `"attack"`,
    /// `"experiment"`, `"scan"`).
    pub kind: &'static str,
    /// The cell axes, as one canonical `key=value` line fragment (scheme,
    /// workload, geometry, noise, … — whatever identifies the cell within
    /// its kind, in a fixed order chosen by the verb).
    pub key: String,
    /// Trial index within the cell.
    pub trial: u64,
    /// The unit's mixed seed (already derived from the run's base seed;
    /// part of the identity because the outcome depends on it).
    pub seed: u64,
    /// Digest of the full simulated-machine configuration the unit runs
    /// on — axes name presets, this pins every derived knob, so a config
    /// change that presets don't capture still invalidates the unit.
    pub config_digest: u64,
}

impl UnitSpec {
    /// The canonical one-line rendering of the spec under a given code
    /// epoch — the exact string the cache digests for the unit's address
    /// and stores next to the payload for verification.
    pub fn canonical(&self, code_epoch: u64) -> String {
        format!(
            "epoch={code_epoch} kind={} {} trial={} seed={:#018x} cfg={:#018x}",
            self.kind, self.key, self.trial, self.seed, self.config_digest
        )
    }

    /// The unit's content address: the 128-bit hex digest of
    /// [`canonical`](Self::canonical).
    pub fn address(&self, code_epoch: u64) -> String {
        let mut d = Digest::new();
        d.write_str(&self.canonical(code_epoch));
        d.hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> UnitSpec {
        UnitSpec {
            kind: "sweep",
            key: "scheme=dom workload=ptr-chase".to_owned(),
            trial: 2,
            seed: 0xDEAD_BEEF,
            config_digest: 42,
        }
    }

    #[test]
    fn canonical_line_is_stable_and_field_sensitive() {
        let base = spec();
        assert_eq!(
            base.canonical(1),
            "epoch=1 kind=sweep scheme=dom workload=ptr-chase trial=2 \
             seed=0x00000000deadbeef cfg=0x000000000000002a"
        );
        let mut addresses = vec![base.address(1), base.address(2)];
        for mutate in [
            |s: &mut UnitSpec| s.kind = "attack",
            |s: &mut UnitSpec| s.key.push_str(" geometry=kaby-lake"),
            |s: &mut UnitSpec| s.trial += 1,
            |s: &mut UnitSpec| s.seed += 1,
            |s: &mut UnitSpec| s.config_digest += 1,
        ] {
            let mut changed = spec();
            mutate(&mut changed);
            addresses.push(changed.address(1));
        }
        let mut dedup = addresses.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), addresses.len(), "every field must address");
    }
}
