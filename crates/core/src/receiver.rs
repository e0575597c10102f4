//! Receivers: turning cache state into bits.
//!
//! Two receivers are provided:
//!
//! * [`FlushReload`] — the classic shared-memory receiver (Yarom & Falkner)
//!   used by the I-Cache PoC (§4.3) and the plain Spectre v1 baseline:
//!   flush a shared line, wait, reload it timed; a fast reload means the
//!   victim touched it.
//! * [`OrderReceiver`] — the paper's novel replacement-state receiver
//!   (§4.2.2): decodes **which of two accesses happened first** from the
//!   `QLRU_H11_M1_R0_U0` age state of one LLC set. This is what makes
//!   speculative interference observable: both orders leave the same set
//!   of lines cached, and only the replacement state distinguishes `A-B`
//!   from `B-A`.
//!
//! # `OrderReceiver` protocol
//!
//! With a `ways`-associative QLRU set, victim line `V`, reference line `R`
//! and an eviction set `EV` of `ways - 1` lines:
//!
//! * **Prime**: flush `V`, `R`, all `EV`; access `V` then `EV` (filling the
//!   set left-to-right, `V` in slot 0, all at insertion age 1); clear the
//!   receiver's private caches; access `V` then `EV` again — LLC hits
//!   promote every age to 0. The set is now full, ages all 0, `V` leftmost,
//!   `R` absent.
//! * **Victim episode** accesses `V` and `R` in a secret-dependent order:
//!   - `V-R`: `V` hits (age 0 stays 0); `R` misses with no age-3 candidate,
//!     so `U0` normalization ages every line to 3 and `R0` evicts the
//!     *leftmost* — `V`. Result: `V` evicted.
//!   - `R-V`: `R` misses first and evicts `V` (same normalization); `V`
//!     then misses and evicts the leftmost age-3 `EV` line. Result: `V`
//!     resident.
//! * **Probe**: clear private caches, timed-reload `V`: a miss decodes
//!   `V-first`, a hit decodes `R-first`. `R` is resident either way and is
//!   probed as a sanity check; a double-miss is classified as noise
//!   (paper step 5: "Cases where both accesses are cache misses ... are
//!   ignored").
//!
//! The paper's Figure 8 EVS1/EVS2 variant is reproduced for comparison by
//! the harness's `fig08` experiment (`sia run fig08`); this protocol is
//! the one validated end-to-end by the unit tests below.

use si_cache::HitLevel;
use si_cpu::{AgentOp, Machine};

use crate::AttackLayout;

/// What a probe decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// The victim access came first (`V-R` order).
    VictimFirst,
    /// The reference access came first (`R-V` order).
    ReferenceFirst,
    /// The state was inconsistent with either order (e.g. co-tenant noise
    /// evicted both lines); the trial should be discarded.
    Noise,
}

/// The replacement-state order receiver of §4.2.2.
#[derive(Debug, Clone)]
pub struct OrderReceiver {
    /// Receiver's core (the CrossCore attacker).
    pub core: usize,
    /// The victim line `V`.
    pub victim_addr: u64,
    /// The reference line `R`.
    pub ref_addr: u64,
    /// Eviction-set line addresses (associativity − 1 of them).
    pub evset: Vec<u64>,
}

impl OrderReceiver {
    /// Builds the receiver from an attack layout (`V = A`, `R = B`).
    pub fn from_layout(layout: &AttackLayout, core: usize) -> OrderReceiver {
        OrderReceiver {
            core,
            victim_addr: layout.a_addr,
            ref_addr: layout.b_addr,
            evset: layout.evset.clone(),
        }
    }

    /// Builds a receiver over explicit lines.
    pub fn new(core: usize, victim_addr: u64, ref_addr: u64, evset: Vec<u64>) -> OrderReceiver {
        OrderReceiver {
            core,
            victim_addr,
            ref_addr,
            evset,
        }
    }

    /// Primes the monitored set (see the module docs for the state it
    /// establishes).
    pub fn prime(&self, m: &mut Machine) {
        m.run_op(AgentOp::Flush(self.victim_addr));
        m.run_op(AgentOp::Flush(self.ref_addr));
        for ev in &self.evset {
            m.run_op(AgentOp::Flush(*ev));
        }
        // Round 1: fill (V leftmost, insertion age 1).
        m.run_op(AgentOp::Access {
            core: self.core,
            addr: self.victim_addr,
        });
        for ev in &self.evset {
            m.run_op(AgentOp::Access {
                core: self.core,
                addr: *ev,
            });
        }
        // Round 2: promote everything to age 0 via LLC hits (the paper's
        // "access EVS1 many times" saturation).
        m.run_op(AgentOp::ClearPrivate(self.core));
        m.run_op(AgentOp::Access {
            core: self.core,
            addr: self.victim_addr,
        });
        for ev in &self.evset {
            m.run_op(AgentOp::Access {
                core: self.core,
                addr: *ev,
            });
        }
    }

    /// Probes the set and decodes the access order.
    pub fn probe(&self, m: &mut Machine) -> Decoded {
        m.run_op(AgentOp::ClearPrivate(self.core));
        let v = m
            .run_op(AgentOp::TimedAccess {
                core: self.core,
                addr: self.victim_addr,
            })
            .expect("timed access returns a result");
        let r = m
            .run_op(AgentOp::TimedAccess {
                core: self.core,
                addr: self.ref_addr,
            })
            .expect("timed access returns a result");
        let v_hit = v.level <= HitLevel::Llc;
        let r_hit = r.level <= HitLevel::Llc;
        match (v_hit, r_hit) {
            (false, true) => Decoded::VictimFirst,
            (true, true) => Decoded::ReferenceFirst,
            _ => Decoded::Noise,
        }
    }
}

impl OrderReceiver {
    /// Rank-based decode for **exact-LRU** sets (the paper's "textbook"
    /// case, §3.3: "the ordering directly influences replacement priority
    /// ranking"). After the victim's pair, the set's LRU order is
    /// `..., first-accessed, last-accessed`; applying `ways - 1` fresh
    /// conflicting fills evicts everything except the most recently
    /// accessed line, so a probe of `V`/`R` reads the order directly:
    ///
    /// * `V` evicted ⇒ `V` first; `V` resident ⇒ `R` first.
    ///
    /// Only `V` is timed: under exact LRU the survivor is in the LRU
    /// position after the pressure fills, so probing the *other* line
    /// first would evict it (the probe's own miss-fill takes the LRU way)
    /// and destroy the signal. Requires a fresh pressure set disjoint from
    /// the primed lines.
    pub fn probe_lru(&self, m: &mut Machine, pressure: &[u64]) -> Decoded {
        for addr in pressure {
            m.run_op(AgentOp::Access {
                core: self.core,
                addr: *addr,
            });
        }
        m.run_op(AgentOp::ClearPrivate(self.core));
        let v = m
            .run_op(AgentOp::TimedAccess {
                core: self.core,
                addr: self.victim_addr,
            })
            .expect("timed access returns a result");
        if v.level <= HitLevel::Llc {
            Decoded::ReferenceFirst
        } else {
            Decoded::VictimFirst
        }
    }
}

/// The classic Flush+Reload receiver over one shared line.
#[derive(Debug, Clone, Copy)]
pub struct FlushReload {
    /// Receiver's core.
    pub core: usize,
    /// The monitored shared address.
    pub addr: u64,
}

impl FlushReload {
    /// Creates a receiver over `addr` observing from `core`.
    pub fn new(core: usize, addr: u64) -> FlushReload {
        FlushReload { core, addr }
    }

    /// Flush step: evict the line system-wide.
    pub fn flush(&self, m: &mut Machine) {
        m.run_op(AgentOp::Flush(self.addr));
    }

    /// Reload step: `true` if the victim brought the line back (LLC or
    /// closer — the CrossCore receiver observes through the shared LLC).
    pub fn reload(&self, m: &mut Machine) -> bool {
        m.run_op(AgentOp::ClearPrivate(self.core));
        let r = m
            .run_op(AgentOp::TimedAccess {
                core: self.core,
                addr: self.addr,
            })
            .expect("timed access returns a result");
        r.level <= HitLevel::Llc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_cpu::MachineConfig;

    /// Replay the two victim orders directly against the LLC and check the
    /// receiver decodes them — the §4.2.2 protocol in isolation.
    fn run_order(order_vr: bool) -> Decoded {
        let mut m = Machine::new(MachineConfig::default());
        let layout = AttackLayout::plan(&m.config().hierarchy.llc);
        let rx = OrderReceiver::from_layout(&layout, 1);
        rx.prime(&mut m);
        let victim = |m: &mut Machine, addr: u64| {
            m.run_op(AgentOp::Access { core: 0, addr });
        };
        if order_vr {
            victim(&mut m, layout.a_addr);
            victim(&mut m, layout.b_addr);
        } else {
            victim(&mut m, layout.b_addr);
            victim(&mut m, layout.a_addr);
        }
        rx.probe(&mut m)
    }

    #[test]
    fn decodes_victim_first() {
        assert_eq!(run_order(true), Decoded::VictimFirst);
    }

    #[test]
    fn decodes_reference_first() {
        assert_eq!(run_order(false), Decoded::ReferenceFirst);
    }

    #[test]
    fn undisturbed_set_reads_as_noise_free_reference_state() {
        // If the victim never runs, V is resident (hit) and R was never
        // filled (miss): classified as Noise.
        let mut m = Machine::new(MachineConfig::default());
        let layout = AttackLayout::plan(&m.config().hierarchy.llc);
        let rx = OrderReceiver::from_layout(&layout, 1);
        rx.prime(&mut m);
        assert_eq!(rx.probe(&mut m), Decoded::Noise);
    }

    #[test]
    fn lru_pressure_probe_decodes_both_orders() {
        use si_cache::{evset, CacheConfig, PolicyKind};
        for order_vr in [true, false] {
            let mut cfg = si_cpu::MachineConfig::default();
            cfg.hierarchy.llc = CacheConfig::new(1024, 16, PolicyKind::Lru);
            let mut m = Machine::new(cfg);
            let layout = AttackLayout::plan(&m.config().hierarchy.llc);
            let rx = OrderReceiver::from_layout(&layout, 1);
            rx.prime(&mut m);
            let (first, second) = if order_vr {
                (layout.a_addr, layout.b_addr)
            } else {
                (layout.b_addr, layout.a_addr)
            };
            m.run_op(AgentOp::Access {
                core: 0,
                addr: first,
            });
            m.run_op(AgentOp::Access {
                core: 0,
                addr: second,
            });
            let pressure = evset::conflicting_addrs(
                &m.config().hierarchy.llc.clone(),
                layout.a_addr,
                m.config().hierarchy.llc.ways - 1,
                &layout.ordered_set_addrs(),
            );
            let decoded = rx.probe_lru(&mut m, &pressure);
            assert_eq!(
                decoded,
                if order_vr {
                    Decoded::VictimFirst
                } else {
                    Decoded::ReferenceFirst
                },
                "order_vr={order_vr}"
            );
        }
    }

    #[test]
    fn flush_reload_detects_victim_touch() {
        let mut m = Machine::new(MachineConfig::default());
        let fr = FlushReload::new(1, 0x9000);
        fr.flush(&mut m);
        assert!(!fr.reload(&mut m), "untouched line misses");
        // reload itself filled the line; a subsequent reload hits
        assert!(fr.reload(&mut m));
        fr.flush(&mut m);
        m.run_op(AgentOp::Access {
            core: 0,
            addr: 0x9000,
        }); // victim touch
        assert!(fr.reload(&mut m));
    }
}
