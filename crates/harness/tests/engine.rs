//! Execution-engine guarantees at the verb level: a `--cache` warm
//! re-run of an unchanged grid executes **zero** units and emits
//! byte-identical JSON (the acceptance criterion), cold-with-cache
//! equals no-cache, and re-shaping a grid re-executes exactly the units
//! whose spec changed.

use si_harness::attack::{run_attack_grid, AttackGrid};
use si_harness::sweep::{run_sweep, GridSpec};
use si_harness::{Engine, CODE_EPOCH};

/// A fresh, empty cache directory unique to this test and process.
fn temp_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sia-engine-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The quick sweep grid the CI smoke jobs run, shrunk further along the
/// workload and predictor axes so the test stays fast and single-row
/// (1 row × 5 columns = 5 units).
fn quick_sweep_grid() -> GridSpec {
    let mut grid = GridSpec::named("defense").expect("named grid");
    grid.quick();
    grid.apply_filter("workload=ptr-chase").expect("filter");
    grid.apply_filter("predictor=p1k").expect("filter");
    grid
}

/// The quick attack grid, shrunk along the scheme axis (2 schemes × 2
/// variants × 3 bits = 12 units, both transmitter calibration paths).
fn quick_attack_grid() -> AttackGrid {
    let mut grid = AttackGrid::named("headline").expect("named grid");
    grid.quick();
    grid.apply_filter("scheme=invisispec,fence-futuristic")
        .expect("filter");
    grid.trials = 3;
    grid
}

#[test]
fn sweep_warm_rerun_is_byte_identical_with_zero_executed_units() {
    let grid = quick_sweep_grid();
    let dir = temp_cache("sweep-warm");
    let cached = Engine::with_cache(4, CODE_EPOCH, &dir);

    let (no_cache_doc, no_cache) = run_sweep(&grid, 0xE5_2021, &Engine::new(4)).expect("runs");
    let (cold_doc, cold) = run_sweep(&grid, 0xE5_2021, &cached).expect("runs");
    let (warm_doc, warm) = run_sweep(&grid, 0xE5_2021, &cached).expect("runs");

    assert_eq!(no_cache.executed, no_cache.total);
    assert_eq!(cold.executed, cold.total, "cold cache executes everything");
    assert_eq!(warm.executed, 0, "warm pass must execute nothing");
    assert_eq!(warm.cached, warm.total);
    let bytes = no_cache_doc.to_pretty();
    assert_eq!(bytes, cold_doc.to_pretty(), "cache must not change output");
    assert_eq!(bytes, warm_doc.to_pretty(), "warm splice must be identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn attack_warm_rerun_is_byte_identical_with_zero_executed_units() {
    let grid = quick_attack_grid();
    let dir = temp_cache("attack-warm");
    let cached = Engine::with_cache(4, CODE_EPOCH, &dir);

    let (no_cache_doc, _) = run_attack_grid(&grid, 0xE5_2021, &Engine::new(4)).expect("runs");
    let (cold_doc, cold) = run_attack_grid(&grid, 0xE5_2021, &cached).expect("runs");
    let (warm_doc, warm) = run_attack_grid(&grid, 0xE5_2021, &cached).expect("runs");

    assert_eq!(cold.executed, cold.total);
    assert_eq!(warm.executed, 0, "warm pass must execute nothing");
    assert_eq!(warm.cached, warm.total);
    let bytes = no_cache_doc.to_pretty();
    assert_eq!(bytes, cold_doc.to_pretty(), "cache must not change output");
    assert_eq!(bytes, warm_doc.to_pretty(), "warm splice must be identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint layer composes with the engine cache: with
/// checkpointing on (the default), a warm `--cache` re-run executes
/// zero units and splices a byte-identical document. Flipping
/// `disable_checkpoint` is folded into the config digest, so the
/// scratch run re-executes everything instead of aliasing the
/// checkpointed entries — yet still emits the same bytes.
#[test]
fn checkpointed_warm_rerun_executes_zero_units_and_scratch_does_not_alias() {
    let mut grid = quick_attack_grid();
    assert!(!grid.disable_checkpoint, "checkpointing is the default");
    let dir = temp_cache("attack-ck-warm");
    let cached = Engine::with_cache(4, CODE_EPOCH, &dir);

    let (ck_doc, cold) = run_attack_grid(&grid, 0xC0FFEE, &cached).expect("runs");
    let (warm_doc, warm) = run_attack_grid(&grid, 0xC0FFEE, &cached).expect("runs");
    assert_eq!(cold.executed, cold.total);
    assert_eq!(warm.executed, 0, "checkpointed warm pass executes nothing");
    assert_eq!(warm.cached, warm.total);
    assert_eq!(ck_doc.to_pretty(), warm_doc.to_pretty());

    grid.disable_checkpoint = true;
    let (scratch_doc, scratch) = run_attack_grid(&grid, 0xC0FFEE, &cached).expect("runs");
    assert_eq!(
        scratch.executed, scratch.total,
        "--no-checkpoint units must not alias the checkpointed entries"
    );
    assert_eq!(scratch.cached, 0);
    assert_eq!(
        ck_doc.to_pretty(),
        scratch_doc.to_pretty(),
        "both paths emit the same bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Widening the scheme axis appends columns; on a single-row grid every
/// pre-existing unit keeps its index (and so its spec and mixed seed),
/// so only the new column's units execute.
#[test]
fn widening_the_scheme_axis_executes_only_the_new_units() {
    let dir = temp_cache("sweep-widen");
    let cached = Engine::with_cache(2, CODE_EPOCH, &dir);

    let mut narrow = quick_sweep_grid();
    narrow.apply_filter("scheme=dom").expect("filter");
    assert_eq!(narrow.unit_count(), Some(2), "baseline + dom");
    run_sweep(&narrow, 7, &cached).expect("runs");

    let mut wide = quick_sweep_grid();
    wide.apply_filter("scheme=dom,fence").expect("filter");
    // defense-grid column order keeps dom first, so the widened grid
    // appends fence columns after the units the cache already holds.
    let (wide_doc, stats) = run_sweep(&wide, 7, &cached).expect("runs");
    assert_eq!(Some(stats.total), wide.unit_count());
    assert_eq!(stats.cached, 2, "baseline + dom splice from cache");
    assert_eq!(
        stats.executed,
        stats.total - 2,
        "only the fence columns execute"
    );

    // The mixed (cached + fresh) document is still byte-identical to a
    // from-scratch run of the widened grid.
    let (fresh_doc, _) = run_sweep(&wide, 7, &Engine::new(2)).expect("runs");
    assert_eq!(wide_doc.to_pretty(), fresh_doc.to_pretty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bumping trials re-flattens the grid: on a single-cell-column grid the
/// first unit keeps its spec, every later unit's (trial, seed) pair is
/// new — the cache serves exactly the unchanged prefix.
#[test]
fn bumping_trials_reexecutes_only_respecced_units() {
    let dir = temp_cache("sweep-trials");
    let cached = Engine::with_cache(2, CODE_EPOCH, &dir);

    let mut grid = quick_sweep_grid();
    grid.apply_filter("scheme=dom").expect("filter");
    run_sweep(&grid, 7, &cached).expect("runs");

    grid.trials = 2;
    let (doc, stats) = run_sweep(&grid, 7, &cached).expect("runs");
    assert_eq!(stats.total, 4);
    // Unit 0 (baseline, trial 0, seed mix(0)) is unchanged; the other
    // three carry new trial indices or shifted seeds.
    assert_eq!(stats.cached, 1);
    assert_eq!(stats.executed, 3);
    let (fresh_doc, _) = run_sweep(&grid, 7, &Engine::new(2)).expect("runs");
    assert_eq!(doc.to_pretty(), fresh_doc.to_pretty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A different base seed changes every unit's spec: nothing may be
/// served from the old seed's entries.
#[test]
fn seed_changes_invalidate_every_unit() {
    let dir = temp_cache("sweep-seed");
    let cached = Engine::with_cache(2, CODE_EPOCH, &dir);
    let grid = quick_sweep_grid();
    run_sweep(&grid, 1, &cached).expect("runs");
    let (_, stats) = run_sweep(&grid, 2, &cached).expect("runs");
    assert_eq!(stats.executed, stats.total, "new seed, all units re-run");
    assert_eq!(stats.cached, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
