//! The boxed-trait reference cache — the semantic oracle for the flat
//! fast-path storage.
//!
//! [`ReferenceCache`] keeps the pre-flat representation (one
//! `Vec<Option<u64>>` and one boxed [`SetPolicy`] per set) and routes every
//! state change through the trait objects. It exists so the optimized
//! [`SetAssocCache`](crate::SetAssocCache) has something slow, simple, and
//! obviously correct to be checked against: `tests/cache_equivalence.rs`
//! drives both with random access/touch/invalidate traces and demands
//! identical outcomes, victims, views, and statistics.

use crate::replacement::SetPolicy;
use crate::{AccessOutcome, CacheConfig, CacheStats, WayView};

struct RefSet {
    lines: Vec<Option<u64>>,
    policy: Box<dyn SetPolicy>,
}

/// A set-associative cache over per-set boxed policies, API-compatible
/// with [`SetAssocCache`](crate::SetAssocCache) for differential testing.
pub struct ReferenceCache {
    config: CacheConfig,
    sets: Vec<RefSet>,
    stats: CacheStats,
    /// Scratch validity vector for `choose_insert_way`, reused per fill.
    valid_scratch: Vec<bool>,
}

impl ReferenceCache {
    /// Creates an empty reference cache.
    pub fn new(config: CacheConfig) -> ReferenceCache {
        let sets = (0..config.sets)
            .map(|i| RefSet {
                lines: vec![None; config.ways],
                policy: config.policy.build(config.ways, i),
            })
            .collect();
        ReferenceCache {
            valid_scratch: vec![false; config.ways],
            config,
            sets,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_and_way(&self, line: u64) -> (usize, Option<usize>) {
        let set = self.config.set_of(line);
        let way = self.sets[set].lines.iter().position(|l| *l == Some(line));
        (set, way)
    }

    /// Presence probe (no state change).
    pub fn probe(&self, line: u64) -> bool {
        self.set_and_way(line).1.is_some()
    }

    /// Demand access: counts a hit or miss, fills on miss.
    pub fn access(&mut self, line: u64) -> AccessOutcome {
        let (set, way) = self.set_and_way(line);
        match way {
            Some(w) => {
                self.stats.hits += 1;
                self.sets[set].policy.on_hit(w);
                AccessOutcome {
                    hit: true,
                    evicted: None,
                }
            }
            None => {
                self.stats.misses += 1;
                let evicted = self.fill_into(set, line);
                AccessOutcome {
                    hit: false,
                    evicted,
                }
            }
        }
    }

    /// Deferred replacement update (counts `touch_updates`, never a hit).
    pub fn touch(&mut self, line: u64) -> bool {
        let (set, way) = self.set_and_way(line);
        match way {
            Some(w) => {
                self.sets[set].policy.on_hit(w);
                self.stats.touch_updates += 1;
                true
            }
            None => false,
        }
    }

    /// Fill without hit/miss accounting.
    pub fn fill(&mut self, line: u64) -> Option<u64> {
        let (set, way) = self.set_and_way(line);
        if way.is_some() {
            return None;
        }
        self.fill_into(set, line)
    }

    fn fill_into(&mut self, set: usize, line: u64) -> Option<u64> {
        let s = &mut self.sets[set];
        for (v, l) in self.valid_scratch.iter_mut().zip(&s.lines) {
            *v = l.is_some();
        }
        if let Some(w) = s.policy.choose_insert_way(&self.valid_scratch) {
            s.lines[w] = Some(line);
            s.policy.on_insert(w);
            return None;
        }
        let victim = s.policy.choose_victim();
        debug_assert!(victim < s.lines.len(), "policy returned way out of range");
        let evicted = s.lines[victim];
        s.policy.on_invalidate(victim);
        s.lines[victim] = Some(line);
        s.policy.on_insert(victim);
        debug_assert!(evicted.is_some(), "victim way must be valid");
        self.stats.evictions += 1;
        evicted
    }

    /// Flush/coherence removal.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let (set, way) = self.set_and_way(line);
        match way {
            Some(w) => {
                self.sets[set].lines[w] = None;
                self.sets[set].policy.on_invalidate(w);
                self.stats.invalidations += 1;
                true
            }
            None => false,
        }
    }

    /// Inclusion-victim removal.
    pub fn back_invalidate(&mut self, line: u64) -> bool {
        if self.invalidate(line) {
            self.stats.back_invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Number of valid lines resident.
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.lines.iter().filter(|l| l.is_some()).count())
            .sum()
    }

    /// Diagnostic set view (same encoding as the fast cache).
    pub fn set_view(&self, set: usize) -> Vec<WayView> {
        let s = &self.sets[set];
        let meta = s.policy.state();
        s.lines
            .iter()
            .zip(meta)
            .map(|(line, meta)| WayView { line: *line, meta })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;

    #[test]
    fn reference_counts_like_the_fast_cache() {
        let cfg = CacheConfig::new(4, 2, PolicyKind::Lru);
        let mut r = ReferenceCache::new(cfg);
        let mut f = crate::SetAssocCache::new("f", cfg);
        for line in [0u64, 4, 0, 8, 12, 4] {
            assert_eq!(r.access(line), f.access(line), "line {line}");
        }
        r.touch(0);
        f.touch(0);
        r.invalidate(8);
        f.invalidate(8);
        assert_eq!(r.stats(), f.stats());
        assert_eq!(r.occupancy(), f.occupancy());
    }
}
