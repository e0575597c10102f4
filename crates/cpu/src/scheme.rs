//! The speculation-scheme interface.
//!
//! Invisible-speculation proposals differ only in *when a speculative load
//! may touch the memory hierarchy and what happens when it becomes safe*
//! (§2.2). This module defines that policy surface; `si-schemes` provides
//! the implementations (Delay-on-Miss, InvisiSpec, SafeSpec, MuonTrap,
//! Conditional Speculation, CleanupSpec, and the §5 defenses). The core
//! consults the active scheme:
//!
//! * at every data access of a load that is not yet **safe**
//!   ([`SpeculationScheme::plan_unsafe_load`]);
//! * every cycle, to promote loads that have since become safe;
//! * at squashes ([`SpeculationScheme::on_squash`]), for schemes with
//!   rollback or filter state;
//! * at issue ([`SpeculationScheme::blocks_issue`]) and in the scheduler
//!   (resource-holding hooks), for the §5.2/§5.4 defenses.

use si_cache::{Hierarchy, HitLevel};

/// Per-entry facts the safety models need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyFlags {
    /// A conditional branch that has not resolved.
    pub unresolved_branch: bool,
    /// A load whose data has not returned (including delayed loads).
    pub load_incomplete: bool,
    /// A store or flush whose address is not yet known.
    pub store_addr_unknown: bool,
    /// An unretired `Fence` instruction.
    pub fence: bool,
}

/// A summary of the ROB used to classify instructions as safe/unsafe
/// under the shadow models of §2.2/§5.2: for each [`SafetyFlags`] kind,
/// the position (0 = head) of the oldest entry carrying it, `usize::MAX`
/// when none does. An entry is in a shadow iff it is younger than that
/// shadow's oldest caster, so every query is one comparison. The core's
/// [`Rob`](crate::Rob) keeps it current as entries dispatch, complete,
/// retire and squash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyView {
    pub(crate) unresolved_branch: usize,
    pub(crate) load_incomplete: usize,
    pub(crate) store_addr_unknown: usize,
    pub(crate) fence: usize,
}

impl SafetyView {
    /// Summarizes per-entry flags listed head-to-tail.
    pub fn new(flags: Vec<SafetyFlags>) -> SafetyView {
        let oldest =
            |kind: fn(&SafetyFlags) -> bool| flags.iter().position(kind).unwrap_or(usize::MAX);
        SafetyView {
            unresolved_branch: oldest(|f| f.unresolved_branch),
            load_incomplete: oldest(|f| f.load_incomplete),
            store_addr_unknown: oldest(|f| f.store_addr_unknown),
            fence: oldest(|f| f.fence),
        }
    }

    /// **Spectre model** safety: safe iff no older branch is unresolved
    /// ("a load is non-speculative iff it is older than the oldest
    /// unresolved branch", §1).
    pub fn spectre_safe(&self, pos: usize) -> bool {
        pos <= self.unresolved_branch
    }

    /// **Futuristic model** safety: safe iff no older instruction can still
    /// squash — every older branch resolved, every older load performed,
    /// every older store/flush address known (§5.2; InvisiSpec's
    /// Futuristic mode unprotects a load "only when it becomes the oldest
    /// load or the oldest instruction in the ROB").
    pub fn futuristic_safe(&self, pos: usize) -> bool {
        pos <= self
            .unresolved_branch
            .min(self.load_incomplete)
            .min(self.store_addr_unknown)
    }

    /// Whether every store or flush older than `pos` has its address.
    pub fn older_store_addrs_known(&self, pos: usize) -> bool {
        pos <= self.store_addr_unknown
    }

    /// Whether an unretired program-level `Fence` exists older than `pos`.
    pub fn fence_blocked(&self, pos: usize) -> bool {
        self.fence < pos
    }
}

/// What to do when an invisibly executed load becomes safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafeAction {
    /// Apply the deferred replacement-state update (Delay-on-Miss after a
    /// speculative L1 hit).
    TouchReplacement,
    /// Perform the full visible access — InvisiSpec/SafeSpec *exposure*:
    /// fill every level as a normal access would have.
    Expose,
}

/// The scheme's decision for one not-yet-safe load access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPlan {
    /// Access normally (visible fills) — the unsafe baseline, or
    /// CleanupSpec (which undoes fills on squash via
    /// [`SpeculationScheme::on_squash`]).
    Visible,
    /// Execute invisibly: return data with honest latency, change no cache
    /// state now; apply `on_safe` when the load becomes safe.
    Invisible {
        /// Deferred state change, if any.
        on_safe: Option<SafeAction>,
        /// Overrides the probe latency (e.g. MuonTrap's L0 filter-cache
        /// hit, serviced at L1 speed from scheme-private state).
        latency_override: Option<u64>,
    },
    /// Delay the access entirely; the core re-issues it visibly when the
    /// load becomes safe (Delay-on-Miss).
    Delay,
}

/// Context handed to [`SpeculationScheme::plan_unsafe_load`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsafeLoadCtx {
    /// Issuing core.
    pub core: usize,
    /// Load's effective address.
    pub addr: u64,
    /// Where a probe says the line would hit (no state was changed).
    pub level: HitLevel,
    /// Current cycle.
    pub cycle: u64,
}

/// An invisible-speculation scheme or defense, as seen by the core.
///
/// Implementations must be deterministic, and — so checkpointed machines
/// can be shared across trial workers — thread-safe plain data
/// (`Send + Sync`). All methods with default bodies are optional hooks
/// for defenses and rollback schemes.
pub trait SpeculationScheme: std::fmt::Debug + Send + Sync {
    /// Human-readable name (used in experiment tables).
    fn name(&self) -> String;

    /// Classifies the instruction at `pos` as safe (retirement-bound for
    /// the scheme's shadow model) or still speculative.
    fn is_safe(&self, view: &SafetyView, pos: usize) -> bool;

    /// Plans the data access of a load that is **not** safe.
    fn plan_unsafe_load(&mut self, ctx: &UnsafeLoadCtx) -> LoadPlan;

    /// Clones the scheme behind its box, including any private state
    /// (MuonTrap's filter cache, a shadow model's bookkeeping). Required
    /// so a whole core — and with it a machine checkpoint — can be
    /// duplicated for copy-on-write trial forking.
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme>;

    /// Called when a mispredicted branch squashes; `spec_filled_lines` are
    /// LLC line addresses filled by squashed loads that accessed visibly
    /// (CleanupSpec's undo set), and `scheme-private` state such as
    /// MuonTrap's filter cache should be cleared here.
    fn on_squash(&mut self, hierarchy: &mut Hierarchy, core: usize, spec_filled_lines: &[u64]) {
        let _ = (hierarchy, core, spec_filled_lines);
    }

    /// Scheduler hook: returning `true` stalls issue of the instruction at
    /// `pos` this cycle (the §5.2 basic fence defense).
    fn blocks_issue(&self, view: &SafetyView, pos: usize) -> bool {
        let _ = (view, pos);
        false
    }

    /// §5.4 rule 1 ("no instruction releases its hardware resources while
    /// speculative"): when `true`, reservation-station entries are held
    /// until retirement and non-pipelined units are held until their
    /// occupant is safe.
    fn holds_resources_until_safe(&self) -> bool {
        false
    }

    /// Whether the scheme also shields the **instruction cache** from
    /// mis-speculated fetches (SafeSpec's shadow I-cache, MuonTrap's
    /// instruction filter cache, CleanupSpec's rollback). When `true`, the
    /// core rolls back I-side fills performed on a squashed path. Schemes
    /// that leave the I-cache unprotected — InvisiSpec and DoM, per
    /// §3.2.2/Table 1 — keep the default `false`, which is what the
    /// `G^I_RS` attack exploits.
    fn protects_ifetch(&self) -> bool {
        false
    }

    /// §5.4 rule 2 ("no instruction ever delays an older instruction"):
    /// when `true`, a younger instruction may not issue to a non-pipelined
    /// unit while any older instruction that needs the same unit is still
    /// waiting.
    fn strict_age_priority(&self) -> bool {
        false
    }
}

/// The unprotected baseline: every load is safe, every access visible —
/// a conventional out-of-order core with no defense (the paper's "unsafe
/// baseline").
#[derive(Debug, Clone, Copy, Default)]
pub struct Unprotected;

impl SpeculationScheme for Unprotected {
    fn name(&self) -> String {
        "Unprotected".to_owned()
    }

    fn is_safe(&self, _view: &SafetyView, _pos: usize) -> bool {
        true
    }

    fn plan_unsafe_load(&mut self, _ctx: &UnsafeLoadCtx) -> LoadPlan {
        LoadPlan::Visible
    }

    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAR: SafetyFlags = SafetyFlags {
        unresolved_branch: false,
        load_incomplete: false,
        store_addr_unknown: false,
        fence: false,
    };

    #[test]
    fn spectre_safety_tracks_unresolved_branches() {
        let mut f = vec![CLEAR; 3];
        f[1].unresolved_branch = true;
        let v = SafetyView::new(f);
        assert!(v.spectre_safe(0));
        assert!(v.spectre_safe(1)); // the branch itself is safe
        assert!(!v.spectre_safe(2)); // shadowed by the branch
    }

    #[test]
    fn futuristic_safety_is_stricter() {
        let mut f = vec![CLEAR; 3];
        f[0].load_incomplete = true;
        let v = SafetyView::new(f);
        assert!(v.spectre_safe(2), "no branches -> spectre safe");
        assert!(!v.futuristic_safe(1), "older incomplete load blocks");
        assert!(!v.futuristic_safe(2));
        assert!(v.futuristic_safe(0), "head is always futuristic-safe");
    }

    #[test]
    fn store_addresses_block_futuristic() {
        let mut f = vec![CLEAR; 2];
        f[0].store_addr_unknown = true;
        let v = SafetyView::new(f);
        assert!(!v.futuristic_safe(1));
    }

    #[test]
    fn fences_block_by_position() {
        let mut f = vec![CLEAR; 3];
        f[1].fence = true;
        let v = SafetyView::new(f);
        assert!(!v.fence_blocked(1));
        assert!(v.fence_blocked(2));
    }

    /// Every query's answer at positions `0..5`: `(spectre_safe,
    /// futuristic_safe, older_store_addrs_known, fence_blocked)`.
    fn answers(v: &SafetyView) -> Vec<(bool, bool, bool, bool)> {
        (0..5)
            .map(|pos| {
                (
                    v.spectre_safe(pos),
                    v.futuristic_safe(pos),
                    v.older_store_addrs_known(pos),
                    v.fence_blocked(pos),
                )
            })
            .collect()
    }

    #[test]
    fn summary_keeps_the_oldest_caster_of_each_kind() {
        let kinds: [fn(&mut SafetyFlags); 4] = [
            |f| f.unresolved_branch = true,
            |f| f.load_incomplete = true,
            |f| f.store_addr_unknown = true,
            |f| f.fence = true,
        ];
        let empty = SafetyView::new(Vec::new());
        assert_eq!(answers(&empty), vec![(true, true, true, false); 5]);
        for (k, set) in kinds.iter().enumerate() {
            // Casters at positions 1 and 3: the younger one adds nothing.
            let mut f = vec![CLEAR; 5];
            set(&mut f[1]);
            set(&mut f[3]);
            let both = SafetyView::new(f.clone());
            let mut only_oldest = vec![CLEAR; 5];
            set(&mut only_oldest[1]);
            assert_eq!(both, SafetyView::new(only_oldest), "kind {k}");
            // The caster itself is outside its own shadow; younger
            // entries are inside it under exactly the models that read
            // this kind.
            let a = answers(&both);
            for (pos, &(spectre, futuristic, stores_known, fenced)) in a.iter().enumerate() {
                let shadowed = pos > 1;
                assert_eq!(spectre, !(shadowed && k == 0), "kind {k} pos {pos}");
                assert_eq!(futuristic, !(shadowed && k < 3), "kind {k} pos {pos}");
                assert_eq!(stores_known, !(shadowed && k == 2), "kind {k} pos {pos}");
                assert_eq!(fenced, shadowed && k == 3, "kind {k} pos {pos}");
            }
            // Once the oldest caster clears, the shadow starts at the next.
            f[1] = CLEAR;
            let a = answers(&SafetyView::new(f));
            assert_eq!(a[3], answers(&empty)[3], "kind {k}: caster at 3");
            assert_ne!(a[4], answers(&empty)[4], "kind {k}: shadowed by 3");
        }
    }

    #[test]
    fn unprotected_never_restricts() {
        let v = SafetyView::new(vec![CLEAR]);
        let s = Unprotected;
        assert!(s.is_safe(&v, 0));
        assert!(!s.blocks_issue(&v, 0));
        assert!(!s.holds_resources_until_safe());
        assert!(!s.strict_age_priority());
    }
}
