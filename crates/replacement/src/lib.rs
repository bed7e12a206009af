//! # ziv-replacement
//!
//! Replacement policies for the ZIV LLC reproduction.
//!
//! The paper evaluates LLC replacement with **LRU** and **Hawkeye**
//! (Jain & Lin, ISCA 2016), uses an offline **Belady MIN** oracle for its
//! motivation study (Fig 2), and relies on **NRU** for the sparse
//! directory and **RRPV** machinery (SRRIP, Jaleel et al., ISCA 2010) for
//! the Hawkeye-side ZIV properties. All of these are implemented here
//! behind one [`ReplacementPolicy`] trait.
//!
//! The trait's [`rank`](ReplacementPolicy::rank) hook — an evict-first
//! ordering of a set's ways — is what makes every proposal in the paper
//! composable with every baseline policy: QBS walks candidates in rank
//! order, SHARP's steps search in rank order, and the ZIV relocation-set
//! replacement picks "the NotInPrC block closest to the LRU position" or
//! "with as high an RRPV as possible" by scanning the same ordering.
//!
//! # Examples
//!
//! ```
//! use ziv_replacement::{PolicyKind, ReplacementPolicy, AccessCtx};
//! use ziv_common::{CacheGeometry, LineAddr};
//!
//! let geom = CacheGeometry::new(16, 4);
//! let mut lru = PolicyKind::Lru.build(geom, 1);
//! let ctx = AccessCtx::demand(LineAddr::new(7), 0x400, ziv_common::CoreId::new(0), 0, 0);
//! lru.on_fill(3, 0, &ctx);
//! assert_eq!(lru.victim(3, &ctx), 1); // untouched ways are older than way 0
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ctx;
mod drrip;
mod hawkeye;
mod kind;
mod lru;
mod min;
mod nru;
mod ship;
mod srrip;

pub use ctx::{AccessCtx, FutureKnowledge, PrecomputedFuture};
pub use drrip::Drrip;
pub use hawkeye::{pc_signature, Hawkeye, HawkeyeConfig, OccupancyPredictor, OptGen, PcSig};
pub use kind::PolicyKind;
pub use lru::Lru;
pub use min::MinOracle;
pub use nru::Nru;
pub use ship::Ship;
pub use srrip::Srrip;

use ziv_common::ids::{SetIdx, WayIdx};

/// Maximum RRPV value used by the 3-bit RRIP policies (the "cache-averse"
/// mark in Hawkeye's classification).
pub const RRPV_MAX: u8 = 7;

/// A per-bank replacement policy over a set-associative structure.
///
/// One policy instance manages the replacement state for *all* sets of a
/// single cache bank. Implementations are deterministic.
pub trait ReplacementPolicy: std::fmt::Debug {
    /// Records a demand fill of `(set, way)`.
    fn on_fill(&mut self, set: SetIdx, way: WayIdx, ctx: &AccessCtx);

    /// Records a demand hit on `(set, way)`.
    fn on_hit(&mut self, set: SetIdx, way: WayIdx, ctx: &AccessCtx);

    /// Records that `(set, way)` was evicted or invalidated. Policies that
    /// learn from evictions (Hawkeye's detraining) hook this.
    fn on_evict(&mut self, set: SetIdx, way: WayIdx);

    /// Records a **relocation insertion** into `(set, way)` (ZIV moving a
    /// block into a relocation set). Like a fill for aging purposes but
    /// must not train access-stream predictors, because no demand access
    /// occurred. Default: treated as a fill.
    fn on_relocate_in(&mut self, set: SetIdx, way: WayIdx, ctx: &AccessCtx) {
        self.on_fill(set, way, ctx);
    }

    /// The way the policy would evict from `set`, assuming all ways are
    /// valid. (Invalid-way preference is handled by the cache controller,
    /// which is also where the paper puts it: the `Invalid` property has
    /// top priority.)
    fn victim(&self, set: SetIdx, ctx: &AccessCtx) -> WayIdx;

    /// Writes the ways of `set` into `out` ordered evict-first →
    /// evict-last (e.g. LRU→MRU, or RRPV descending).
    fn rank(&self, set: SetIdx, ctx: &AccessCtx, out: &mut Vec<WayIdx>);

    /// The RRPV of `(set, way)` if this is an RRPV-graded policy
    /// (Section III-D5 keys the `MaxRRPVNotInPrC` property off this).
    fn rrpv(&self, _set: SetIdx, _way: WayIdx) -> Option<u8> {
        None
    }

    /// Moves `(set, way)` away from eviction (QBS "move to MRU position";
    /// RRPV policies set RRPV to 0).
    fn protect(&mut self, set: SetIdx, way: WayIdx);

    /// Human-readable policy name.
    fn name(&self) -> &'static str;
}

/// Asserts the basic contract every policy must satisfy; shared by the
/// per-policy test modules. `rank` must be a permutation of the set's
/// ways whose head is `victim`, on a freshly filled set and after every
/// step of a seeded random mix of fills, hits, evictions, relocation
/// insertions and protections over lines `0..4 * sets * ways`.
#[cfg(test)]
pub(crate) fn check_policy_contract(
    policy: &mut dyn ReplacementPolicy,
    sets: SetIdx,
    ways: WayIdx,
) {
    use ziv_common::{CoreId, LineAddr, SimRng};
    let ctx = AccessCtx::demand(LineAddr::new(1), 0x400, CoreId::new(0), 0, 0);
    let mut order = Vec::new();
    let mut check = |policy: &dyn ReplacementPolicy, set: SetIdx, ctx: &AccessCtx, step| {
        policy.rank(set, ctx, &mut order);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..ways).collect::<Vec<_>>(),
            "step {step}: rank must be a permutation of all ways"
        );
        let v = policy.victim(set, ctx);
        assert_eq!(
            v, order[0],
            "step {step}: victim must be the first-ranked way"
        );
    };
    for set in 0..sets {
        for way in 0..ways {
            policy.on_fill(set, way, &ctx);
        }
        check(policy, set, &ctx, 0);
    }
    let mut rng = SimRng::seed_from_u64(0xC047_AC75);
    let lines = 4 * u64::from(sets) * u64::from(ways);
    for step in 1..=4_000u64 {
        let set = rng.below(u64::from(sets)) as SetIdx;
        let way = rng.below(u64::from(ways)) as WayIdx;
        let line = LineAddr::new(rng.below(lines));
        let ctx = AccessCtx::demand(line, 0x400 + 4 * rng.below(8), CoreId::new(0), step, step);
        match rng.below(6) {
            0 | 1 => policy.on_hit(set, way, &ctx),
            2 => {
                policy.on_evict(set, way);
                policy.on_fill(set, way, &ctx);
            }
            3 => policy.on_evict(set, way),
            4 => policy.on_relocate_in(set, way, &ctx),
            _ => policy.protect(set, way),
        }
        check(policy, set, &ctx, step);
    }
}
