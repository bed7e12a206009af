//! One LLC bank: the tag/data array with ZIV block state, its
//! replacement policy, its property vectors, and its relocation FIFO.

use crate::llc::{GradedKind, ZivProperty};
use ziv_cache::{PropertyVector, RelocationFifo, SetAssocArray};
use ziv_char::GroupId;
use ziv_common::ids::{SetIdx, WayIdx};
use ziv_common::stats::Log2Histogram;
use ziv_common::{CacheGeometry, Cycle, LineAddr};
use ziv_replacement::{AccessCtx, ReplacementPolicy, RRPV_MAX};

/// Per-LLC-block state (Sections III-C and III-D): the `Relocated`,
/// `NotInPrC`, and `LikelyDead` state bits, the dirty bit, plus the
/// bookkeeping our simulator carries in place of raw tag bits (the full
/// line address, standing in for the paper's tag-encoded directory
/// pointer) and CHAR's recall-attribution group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcState {
    /// The line actually cached here. For a relocated block this is the
    /// block's original address — functionally what the paper recovers
    /// by storing the sparse-directory entry location in the (otherwise
    /// unused) tag of a relocated block (Section III-C3).
    pub line: LineAddr,
    /// Dirty bit.
    pub dirty: bool,
    /// The ZIV `Relocated` state: this block lives outside its home set
    /// and is reachable only through the sparse directory.
    pub relocated: bool,
    /// Set when no private cache holds a copy (Section III-D3).
    pub not_in_prc: bool,
    /// CHAR-inferred dead bit (Section III-D6).
    pub likely_dead: bool,
    /// `(core, group)` recorded at the last private eviction notice, for
    /// CHAR recall counting.
    pub evict_group: Option<(u16, GroupId)>,
}

impl Default for LlcState {
    fn default() -> Self {
        LlcState {
            line: LineAddr::new(0),
            dirty: false,
            relocated: false,
            not_in_prc: false,
            likely_dead: false,
            evict_group: None,
        }
    }
}

/// A block evicted from the LLC by a fill or relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedBlock {
    /// The departing line.
    pub line: LineAddr,
    /// Whether the LLC copy was dirty (needs a memory writeback).
    pub dirty: bool,
    /// Whether the block was in the ZIV `Relocated` state.
    pub was_relocated: bool,
}

/// One LLC bank.
#[derive(Debug)]
pub struct LlcBank {
    /// Tag/state array.
    pub array: SetAssocArray<LlcState>,
    /// The bank's replacement policy (baseline LLC policy).
    pub policy: Box<dyn ReplacementPolicy>,
    /// The property vectors; only a ZIV bank keeps them.
    pvs: Option<BankPvs>,
    /// The eight-entry relocation buffer (Section III-D1).
    pub fifo: RelocationFifo,
    /// Cycle of the last relocation in this bank (Fig 18 intervals).
    pub last_relocation: Option<Cycle>,
    /// Histogram of relocation intervals (log2 cycles) — Fig 18.
    pub relocation_intervals: Log2Histogram,
    rank_buf: Vec<WayIdx>,
}

/// A ZIV bank's property vectors (Section III-D1) and the sets whose
/// property bits predate their last mutation.
///
/// The hardware updates a set's bits alongside the set itself. The
/// simulator defers the recompute instead: a mutation only marks the set
/// stale, and stale sets are recomputed when a PV is read. A recompute
/// reads the set's current block and policy state, so the bits read are
/// the ones an update after every mutation would have left (a relocated
/// hit, which updates no bits, settles the set first: `sync_set`).
#[derive(Debug)]
struct BankPvs {
    invalid: PropertyVector,
    not_in_prc: PropertyVector,
    /// Stays empty for properties without a graded level.
    graded: PropertyVector,
    likely_dead: PropertyVector,
    /// `None` when the property never reads the graded PV.
    graded_kind: Option<GradedKind>,
    /// One bit per set whose property bits are out of date.
    stale: Vec<u64>,
    /// Whether any bit of `stale` may be set.
    any_stale: bool,
}

impl BankPvs {
    fn new(sets: u32, property: ZivProperty) -> Self {
        BankPvs {
            invalid: full_pv(sets),
            not_in_prc: PropertyVector::new(sets),
            graded: PropertyVector::new(sets),
            likely_dead: PropertyVector::new(sets),
            graded_kind: property.graded_kind(),
            stale: vec![0; sets.div_ceil(64) as usize],
            any_stale: false,
        }
    }

    #[inline]
    fn mark_stale(&mut self, set: SetIdx) {
        self.stale[(set / 64) as usize] |= 1u64 << (set % 64);
        self.any_stale = true;
    }

    /// Clears `set`'s stale bit; returns whether it was set.
    fn take_stale(&mut self, set: SetIdx) -> bool {
        let word = &mut self.stale[(set / 64) as usize];
        let bit = 1u64 << (set % 64);
        let was = *word & bit != 0;
        *word &= !bit;
        was
    }

    /// Recomputes every stale set.
    fn sync(&mut self, array: &SetAssocArray<LlcState>, policy: &dyn ReplacementPolicy) {
        if !self.any_stale {
            return;
        }
        for i in 0..self.stale.len() {
            let mut bits = std::mem::take(&mut self.stale[i]);
            while bits != 0 {
                self.recompute(i as u32 * 64 + bits.trailing_zeros(), array, policy);
                bits &= bits - 1;
            }
        }
        self.any_stale = false;
    }

    /// Recomputes every property bit of `set` from block and policy
    /// state. O(ways).
    fn recompute(
        &mut self,
        set: SetIdx,
        array: &SetAssocArray<LlcState>,
        policy: &dyn ReplacementPolicy,
    ) {
        // One walk derives the Invalid, NotInPrC, and LikelyDeadNotInPrC
        // bits together (an invalid way exists iff fewer than `ways`
        // slots are valid).
        let mut valid_ways = 0usize;
        let mut any_nip = false;
        let mut any_dead_nip = false;
        for w in array.iter_set(set) {
            valid_ways += 1;
            if !w.state.relocated && w.state.not_in_prc {
                any_nip = true;
                if w.state.likely_dead {
                    any_dead_nip = true;
                }
            }
        }
        self.invalid
            .set(set, valid_ways < array.geometry().ways as usize);
        self.not_in_prc.set(set, any_nip);
        self.likely_dead.set(set, any_dead_nip);

        let graded = match self.graded_kind {
            None => return,
            Some(GradedKind::LruPos) => {
                // The block entering the LRU (first-ranked) position has
                // NotInPrC set (Section III-D4). Every policy's rank order
                // starts at its victim, so no sort is needed.
                let w = policy.victim(set, &neutral_ctx());
                array.is_valid(set, w) && {
                    let s = array.state(set, w);
                    !s.relocated && s.not_in_prc
                }
            }
            Some(GradedKind::MaxRrpv) => {
                // The set has a cache-averse (RRPV = 7) block that is not
                // privately cached (Section III-D5).
                array.iter_set(set).any(|w| {
                    !w.state.relocated
                        && w.state.not_in_prc
                        && policy.rrpv(set, w.way) == Some(RRPV_MAX)
                })
            }
        };
        self.graded.set(set, graded);
    }

    fn pv(&self, level: PropertyLevel) -> &PropertyVector {
        match level {
            PropertyLevel::Invalid => &self.invalid,
            PropertyLevel::Graded => &self.graded,
            PropertyLevel::LikelyDead => &self.likely_dead,
            PropertyLevel::NotInPrC => &self.not_in_prc,
        }
    }

    fn pv_mut(&mut self, level: PropertyLevel) -> &mut PropertyVector {
        match level {
            PropertyLevel::Invalid => &mut self.invalid,
            PropertyLevel::Graded => &mut self.graded,
            PropertyLevel::LikelyDead => &mut self.likely_dead,
            PropertyLevel::NotInPrC => &mut self.not_in_prc,
        }
    }
}

impl LlcBank {
    /// Creates a bank with the given geometry and policy. A bank of a
    /// ZIV LLC passes its relocation property and keeps property
    /// vectors; every other bank passes `None` and keeps none.
    pub fn new(
        geom: CacheGeometry,
        policy: Box<dyn ReplacementPolicy>,
        property: Option<ZivProperty>,
    ) -> Self {
        LlcBank {
            array: SetAssocArray::new(geom),
            policy,
            pvs: property.map(|p| BankPvs::new(geom.sets, p)),
            fifo: RelocationFifo::new(),
            last_relocation: None,
            relocation_intervals: Log2Histogram::new(),
            rank_buf: Vec::new(),
        }
    }

    /// Records that `set`'s block or policy state changed, so its
    /// property bits must be recomputed before they are next read.
    /// Called after any mutation of the set; O(1).
    #[inline]
    pub fn mark_stale(&mut self, set: SetIdx) {
        if let Some(pvs) = &mut self.pvs {
            pvs.mark_stale(set);
        }
    }

    /// Recomputes the property bits of every stale set.
    pub fn sync_pvs(&mut self) {
        if let Some(pvs) = &mut self.pvs {
            pvs.sync(&self.array, self.policy.as_ref());
        }
    }

    /// Recomputes `set`'s property bits now if they are stale. A policy
    /// update that must not reach the bits (a relocated hit, DESIGN.md
    /// §8) calls this first, so a later sync cannot fold it in.
    pub fn sync_set(&mut self, set: SetIdx) {
        if let Some(pvs) = &mut self.pvs {
            if pvs.take_stale(set) {
                pvs.recompute(set, &self.array, self.policy.as_ref());
            }
        }
    }

    /// Whether `set` satisfies the property at `level` (used for the
    /// "check the original set first" rule of Sections III-D4..7).
    ///
    /// # Panics
    ///
    /// Panics if the bank keeps no property vectors (not a ZIV bank).
    pub fn set_satisfies(&mut self, set: SetIdx, level: PropertyLevel) -> bool {
        self.sync_set(set);
        self.pvs().pv(level).get(set)
    }

    /// The PV for `level`, with every stale set recomputed.
    ///
    /// # Panics
    ///
    /// Panics if the bank keeps no property vectors (not a ZIV bank).
    pub fn pv(&mut self, level: PropertyLevel) -> &PropertyVector {
        self.sync_pvs();
        self.pvs().pv(level)
    }

    /// Consumes the `nextRS` of the PV for `level` (Algorithm 1), with
    /// every stale set recomputed first. `None` when no set satisfies
    /// the property.
    ///
    /// # Panics
    ///
    /// Panics if the bank keeps no property vectors (not a ZIV bank).
    pub fn take_next_rs(&mut self, level: PropertyLevel) -> Option<SetIdx> {
        self.sync_pvs();
        self.pvs
            .as_mut()
            .expect("only a ZIV bank keeps property vectors")
            .pv_mut(level)
            .take_next_rs()
    }

    fn pvs(&self) -> &BankPvs {
        self.pvs
            .as_ref()
            .expect("only a ZIV bank keeps property vectors")
    }

    /// Selects the victim within a relocation set, following the
    /// property-specific priority of Section III-E: invalid first, then
    /// the property-ordered `NotInPrC` scans (the policy's rank order
    /// realizes "closest to LRU" / "as high an RRPV as possible").
    pub fn relocation_victim(&mut self, set: SetIdx, property: ZivProperty) -> Option<WayIdx> {
        if let Some(w) = self.array.invalid_way(set) {
            return Some(w);
        }
        let ctx = neutral_ctx();
        let mut order = std::mem::take(&mut self.rank_buf);
        self.policy.rank(set, &ctx, &mut order);
        let pick = |pred: &dyn Fn(&LlcState, WayIdx) -> bool, order: &[WayIdx]| {
            order
                .iter()
                .copied()
                .find(|&w| self.array.is_valid(set, w) && pred(self.array.state(set, w), w))
        };
        let nip = |s: &LlcState, _w: WayIdx| !s.relocated && s.not_in_prc;
        let dead_nip = |s: &LlcState, _w: WayIdx| !s.relocated && s.not_in_prc && s.likely_dead;
        let averse_nip = |s: &LlcState, w: WayIdx| {
            !s.relocated && s.not_in_prc && self.policy.rrpv(set, w) == Some(RRPV_MAX)
        };
        let found = match property {
            ZivProperty::NotInPrC | ZivProperty::LruNotInPrC | ZivProperty::MaxRrpvNotInPrC => {
                pick(&nip, &order)
            }
            ZivProperty::LikelyDead => pick(&dead_nip, &order).or_else(|| pick(&nip, &order)),
            ZivProperty::MaxRrpvLikelyDead => pick(&averse_nip, &order)
                .or_else(|| pick(&dead_nip, &order))
                .or_else(|| pick(&nip, &order)),
        };
        self.rank_buf = order;
        found
    }

    /// Records a relocation in this bank at `now` (Fig 18 statistics).
    pub fn record_relocation(&mut self, now: Cycle) {
        if let Some(prev) = self.last_relocation {
            self.relocation_intervals
                .record(now.saturating_sub(prev).max(1));
        }
        self.last_relocation = Some(now);
    }
}

/// The property-priority levels of the relocation-set search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyLevel {
    /// An invalid way exists (always the highest priority).
    Invalid,
    /// The graded property (`LRUNotInPrC` / `MaxRRPVNotInPrC`).
    Graded,
    /// `LikelyDeadNotInPrC`.
    LikelyDead,
    /// Plain `NotInPrC` (always the last resort).
    NotInPrC,
}

/// Neutral policy context for victim and rank queries outside a demand
/// access.
pub(crate) fn neutral_ctx() -> AccessCtx {
    AccessCtx::demand(LineAddr::new(0), 0, ziv_common::CoreId::new(0), 0, u64::MAX)
}

/// A PV that starts with every bit set (all sets of an empty bank have
/// invalid ways).
fn full_pv(sets: u32) -> PropertyVector {
    let mut pv = PropertyVector::new(sets);
    for s in 0..sets {
        pv.set(s, true);
    }
    pv
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_replacement::{Lru, Srrip};

    fn bank_lru() -> LlcBank {
        let geom = CacheGeometry::new(8, 4);
        LlcBank::new(
            geom,
            Box::new(Lru::new(geom)),
            Some(ZivProperty::LruNotInPrC),
        )
    }

    fn bank_rrpv() -> LlcBank {
        let geom = CacheGeometry::new(8, 4);
        LlcBank::new(
            geom,
            Box::new(Srrip::new(geom)),
            Some(ZivProperty::MaxRrpvNotInPrC),
        )
    }

    fn fill(bank: &mut LlcBank, set: SetIdx, way: WayIdx, line: u64, nip: bool) {
        let l = LineAddr::new(line);
        bank.array.fill(
            set,
            way,
            line,
            LlcState {
                line: l,
                not_in_prc: nip,
                ..Default::default()
            },
        );
        bank.policy.on_fill(
            set,
            way,
            &AccessCtx::demand(l, 0x40, ziv_common::CoreId::new(0), 0, 0),
        );
        bank.mark_stale(set);
    }

    #[test]
    fn empty_bank_has_all_invalid_bits() {
        let mut b = bank_lru();
        assert_eq!(b.pv(PropertyLevel::Invalid).count_ones(), 8);
        assert!(b.pv(PropertyLevel::NotInPrC).is_empty());
    }

    #[test]
    fn invalid_bit_clears_when_set_fills() {
        let mut b = bank_lru();
        for w in 0..4 {
            fill(&mut b, 2, w, 100 + w as u64, false);
        }
        assert!(!b.pv(PropertyLevel::Invalid).get(2));
        assert!(b.pv(PropertyLevel::Invalid).get(3));
    }

    #[test]
    fn not_in_prc_pv_tracks_state() {
        let mut b = bank_lru();
        fill(&mut b, 1, 0, 50, true);
        assert!(b.pv(PropertyLevel::NotInPrC).get(1));
        b.array.state_mut(1, 0).not_in_prc = false;
        b.mark_stale(1);
        assert!(!b.pv(PropertyLevel::NotInPrC).get(1));
    }

    #[test]
    fn relocated_blocks_never_satisfy_not_in_prc() {
        let mut b = bank_lru();
        fill(&mut b, 1, 0, 50, true);
        b.array.state_mut(1, 0).relocated = true;
        b.mark_stale(1);
        assert!(!b.pv(PropertyLevel::NotInPrC).get(1));
    }

    #[test]
    fn lru_graded_bit_requires_lru_position() {
        let mut b = bank_lru();
        for w in 0..4 {
            fill(&mut b, 0, w, 10 + w as u64, false);
        }
        // Way 0 is LRU; mark way 3 (MRU) NotInPrC -> graded bit off.
        b.array.state_mut(0, 3).not_in_prc = true;
        b.mark_stale(0);
        assert!(!b.pv(PropertyLevel::Graded).get(0));
        assert!(b.pv(PropertyLevel::NotInPrC).get(0));
        // Mark way 0 (LRU) NotInPrC -> graded bit on.
        b.array.state_mut(0, 0).not_in_prc = true;
        b.mark_stale(0);
        assert!(b.pv(PropertyLevel::Graded).get(0));
    }

    #[test]
    fn max_rrpv_graded_bit_requires_averse_block() {
        let mut b = bank_rrpv();
        for w in 0..4 {
            fill(&mut b, 0, w, 10 + w as u64, true);
        }
        // SRRIP fills at RRPV_MAX-1: no averse block yet.
        assert!(!b.pv(PropertyLevel::Graded).get(0));
        b.policy.on_evict(0, 2); // forces way 2 to RRPV_MAX
        b.array.state_mut(0, 2).not_in_prc = true;
        b.mark_stale(0);
        assert!(b.pv(PropertyLevel::Graded).get(0));
    }

    #[test]
    fn relocation_victim_prefers_invalid() {
        let mut b = bank_lru();
        fill(&mut b, 0, 0, 10, true);
        assert_eq!(b.relocation_victim(0, ZivProperty::NotInPrC), Some(1));
    }

    #[test]
    fn relocation_victim_picks_nip_closest_to_lru() {
        let mut b = bank_lru();
        for w in 0..4 {
            fill(&mut b, 0, w, 10 + w as u64, false);
        }
        // LRU order is 0,1,2,3; mark ways 2 and 1 NotInPrC.
        b.array.state_mut(0, 2).not_in_prc = true;
        b.array.state_mut(0, 1).not_in_prc = true;
        b.mark_stale(0);
        assert_eq!(b.relocation_victim(0, ZivProperty::NotInPrC), Some(1));
    }

    #[test]
    fn relocation_victim_likely_dead_priority() {
        let mut b = bank_lru();
        for w in 0..4 {
            fill(&mut b, 0, w, 10 + w as u64, true);
        }
        // Way 3 is MRU but LikelyDead: LikelyDead level beats position.
        b.array.state_mut(0, 3).likely_dead = true;
        b.mark_stale(0);
        assert_eq!(b.relocation_victim(0, ZivProperty::LikelyDead), Some(3));
        // Without any LikelyDead, falls back to NotInPrC closest to LRU.
        b.array.state_mut(0, 3).likely_dead = false;
        b.mark_stale(0);
        assert_eq!(b.relocation_victim(0, ZivProperty::LikelyDead), Some(0));
    }

    #[test]
    fn relocation_victim_none_when_all_cached() {
        let mut b = bank_lru();
        for w in 0..4 {
            fill(&mut b, 0, w, 10 + w as u64, false);
        }
        assert_eq!(b.relocation_victim(0, ZivProperty::NotInPrC), None);
    }

    #[test]
    fn relocation_intervals_recorded() {
        let mut b = bank_lru();
        b.record_relocation(100);
        b.record_relocation(228);
        assert_eq!(b.relocation_intervals.total(), 1);
        assert_eq!(b.relocation_intervals.count_in_bucket(7), 1); // 128 cycles
    }
}
