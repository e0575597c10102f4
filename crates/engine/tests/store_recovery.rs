//! Corruption-recovery property test for the packed store, plus the
//! contract for directories left by the retired one-file-per-unit layout.
//!
//! The property: **whatever bytes rot on disk, the store never serves a
//! corrupt payload.** Every record carries a checksum and its full
//! canonical spec line; a damaged record (and the untrusted tail behind
//! it) degrades to a cache miss, and the engine transparently
//! re-executes those units — so after arbitrary bit flips and
//! truncations, a run over the damaged store still produces exactly the
//! cold-run outcomes.

use rand::{Rng, SeedableRng, StdRng};
use si_engine::{Engine, PackStore, UnitSpec};

const EPOCH: u64 = 1;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("si-store-rec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn specs(n: u64) -> Vec<UnitSpec> {
    (0..n)
        .map(|t| UnitSpec {
            kind: "sweep",
            key: "scheme=dom workload=ptr-chase".to_owned(),
            trial: t,
            seed: t.wrapping_mul(0x9e37_79b9),
            config_digest: 7,
        })
        .collect()
}

/// The unit's "simulation": any pure function of the spec.
fn outcome(spec: &UnitSpec) -> u64 {
    spec.seed.wrapping_mul(31).wrapping_add(spec.trial)
}

/// Fills a store with every spec's payload, split across several
/// segments per shard.
fn populate(dir: &std::path::Path, units: &[UnitSpec]) {
    let store = PackStore::open(dir);
    for (i, spec) in units.iter().enumerate() {
        store.store(spec, EPOCH, &outcome(spec).to_string());
        if i % 7 == 6 {
            store.flush().expect("flush");
        }
    }
    store.flush().expect("flush");
}

/// Every file in the store's shard directories, sorted for deterministic
/// damage.
fn pack_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    if let Ok(shards) = std::fs::read_dir(dir) {
        for shard in shards.flatten() {
            if let Ok(inner) = std::fs::read_dir(shard.path()) {
                files.extend(inner.flatten().map(|e| e.path()));
            }
        }
    }
    files.sort();
    files
}

/// Randomized damage: bit flips at random offsets, or a random
/// truncation, applied to one random pack file.
fn damage(rng: &mut StdRng, files: &[std::path::PathBuf]) {
    let path = &files[rng.gen_range(0..files.len())];
    let mut bytes = std::fs::read(path).expect("read pack");
    if bytes.is_empty() {
        return;
    }
    if rng.gen_bool(0.5) {
        // Flip 1..=4 random bytes.
        for _ in 0..rng.gen_range(1..=4usize) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
        }
    } else {
        // Truncate to a random prefix.
        bytes.truncate(rng.gen_range(0..bytes.len()));
    }
    std::fs::write(path, &bytes).expect("write damage");
}

/// The core property, across 12 seeded damage scenarios: a damaged
/// store never returns a wrong payload, and an engine run over it
/// reproduces the cold outcomes exactly (misses re-execute).
#[test]
fn damaged_store_degrades_to_misses_never_corrupt_payloads() {
    let units = specs(30);
    let expected: Vec<u64> = units.iter().map(outcome).collect();
    for scenario in 0u64..12 {
        let mut rng = StdRng::seed_from_u64(0x51A0_2021 ^ scenario);
        let dir = temp_dir(&format!("damage-{scenario}"));
        populate(&dir, &units);
        let files = pack_files(&dir);
        assert!(!files.is_empty(), "populate produced no segments");
        for _ in 0..rng.gen_range(1..=5usize) {
            damage(&mut rng, &files);
        }

        // Property 1: lookups return the exact payload or nothing.
        let store = PackStore::open(&dir);
        let mut hits = 0;
        for (spec, want) in units.iter().zip(&expected) {
            // A miss is fine (degraded, re-executable); a hit must be exact.
            if let Some(payload) = store.lookup(spec, EPOCH) {
                assert_eq!(
                    payload,
                    want.to_string(),
                    "scenario {scenario}: corrupt payload served for {spec:?}"
                );
                hits += 1;
            }
        }

        // Property 2: an engine run over the damaged store reproduces
        // the cold outcomes (misses re-execute), and afterwards the
        // store is fully healed.
        let engine = Engine::with_cache(2, EPOCH, &dir);
        let (values, stats) = engine.run_units(
            &units,
            |i| outcome(&units[i]),
            |v| Some(v.to_string()),
            |p| p.parse().ok(),
        );
        assert_eq!(values, expected, "scenario {scenario}: outcomes drifted");
        assert_eq!(stats.executed + stats.cached, units.len());
        assert_eq!(
            stats.cached, hits,
            "scenario {scenario}: the engine must see exactly the surviving records"
        );
        let healed = PackStore::open(&dir);
        for (spec, want) in units.iter().zip(&expected) {
            assert_eq!(
                healed.lookup(spec, EPOCH).as_deref(),
                Some(want.to_string().as_str()),
                "scenario {scenario}: store not healed after re-run"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A garbage file planted where a segment should be must not poison the
/// open (it parses as zero records).
#[test]
fn garbage_segments_are_ignored() {
    let dir = temp_dir("garbage");
    let units = specs(5);
    populate(&dir, &units);
    std::fs::write(
        dir.join("ab").join("seg-0-99.pack"),
        b"not a segment at all",
    )
    .or_else(|_| {
        std::fs::create_dir_all(dir.join("ab"))
            .and_then(|()| std::fs::write(dir.join("ab").join("seg-0-99.pack"), b"nope"))
    })
    .expect("plant garbage");
    let store = PackStore::open(&dir);
    for spec in &units {
        assert_eq!(
            store.lookup(spec, EPOCH).as_deref(),
            Some(outcome(spec).to_string().as_str())
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retired one-file-per-unit layout is not migrated: the store is a
/// regenerable cache, so hand-made `<aa>/<addr>.unit` files are never
/// indexed, an engine run over them executes every unit and returns the
/// same values, and `clear` still removes them.
#[test]
fn unit_files_are_ignored_recomputed_and_cleared() {
    let dir = temp_dir("unit-files");
    let units = specs(6);
    for spec in &units {
        let address = spec.address(EPOCH);
        let shard = dir.join(&address[..2]);
        std::fs::create_dir_all(&shard).expect("shard dir");
        std::fs::write(
            shard.join(format!("{}.unit", &address[2..])),
            format!("{}\n{}", spec.canonical(EPOCH), outcome(spec)),
        )
        .expect("write .unit file");
    }
    let unit_files = || {
        pack_files(&dir)
            .into_iter()
            .filter(|p| p.extension().is_some_and(|x| x == "unit"))
            .count()
    };
    assert_eq!(unit_files(), units.len());

    let store = PackStore::open(&dir);
    assert!(store.is_empty(), ".unit files must not be indexed");

    let engine = Engine::with_cache(2, EPOCH, &dir);
    let (values, stats) = engine.run_units(
        &units,
        |i| outcome(&units[i]),
        |v| Some(v.to_string()),
        |p| p.parse().ok(),
    );
    assert_eq!(values, units.iter().map(outcome).collect::<Vec<_>>());
    assert_eq!(stats.executed, units.len(), "every unit recomputes");
    assert_eq!(stats.cached, 0);

    PackStore::open(&dir).clear().expect("clear");
    assert_eq!(unit_files(), 0, "clear removes stray .unit files");
    let _ = std::fs::remove_dir_all(&dir);
}
