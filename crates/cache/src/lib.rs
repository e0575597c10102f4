//! Cache substrate for the speculative-interference simulator.
//!
//! This crate provides every memory-side structure the paper's attacks and
//! defenses exercise:
//!
//! * parametric set-associative caches ([`SetAssocCache`]) with pluggable
//!   replacement policies, including the parameterized **QLRU** family —
//!   `QLRU_H11_M1_R0_U0` is the policy reverse-engineered on the paper's
//!   Kaby Lake target (§4.2.2) and the one its replacement-state receiver
//!   decodes;
//! * miss-status-holding registers ([`MshrFile`]), the contended resource of
//!   the `G^D_MSHR` interference gadget (§3.2.2, Figure 4);
//! * a multi-core [`Hierarchy`] with per-core L1I/L1D/L2 and a shared
//!   *inclusive* LLC with back-invalidation, visible/invisible access
//!   types (the mechanism invisible-speculation schemes rely on), a
//!   `clflush` analog, and a visible-LLC access log — the `C(E)` pattern of
//!   the paper's ideal-invisible-speculation definition (§5.1);
//! * eviction-set construction helpers ([`evset`]), the attacker tooling of
//!   §4.1.
//!
//! # Example
//!
//! ```
//! use si_cache::{CacheConfig, PolicyKind, SetAssocCache};
//!
//! let mut l1 = SetAssocCache::new("L1D", CacheConfig::new(64, 8, PolicyKind::Lru));
//! assert!(!l1.access(0x1000 >> 6).hit);
//! assert!(l1.access(0x1000 >> 6).hit);
//! ```

mod cache;
mod config;
pub mod evset;
mod hierarchy;
pub mod infer;
mod mshr;
pub mod reference;
pub mod replacement;
mod stats;

pub use cache::{AccessOutcome, SetAssocCache, WayView};
pub use config::{CacheConfig, HierarchyConfig, LatencyConfig};
pub use hierarchy::{
    AccessClass, AccessResult, Hierarchy, HitLevel, LlcEvent, LlcEventKind, SharedMshrStats,
    Visibility,
};
pub use mshr::{MshrFile, MshrId};
pub use replacement::{PolicyKind, QlruParams, SetPolicy};
pub use stats::CacheStats;

/// Bytes per cache line throughout the hierarchy.
pub const LINE_BYTES: u64 = 64;

/// Returns the line address (byte address divided by the line size).
///
/// ```
/// use si_cache::{line_of, LINE_BYTES};
/// assert_eq!(line_of(0), 0);
/// assert_eq!(line_of(LINE_BYTES - 1), 0);
/// assert_eq!(line_of(LINE_BYTES), 1);
/// ```
pub fn line_of(addr: u64) -> u64 {
    addr / LINE_BYTES
}

/// Returns the first byte address of a line.
pub fn line_base(line: u64) -> u64 {
    line * LINE_BYTES
}
