//! Lazy property-vector upkeep is indistinguishable from eager upkeep.
//!
//! Two identical ZIV LLCs run the same seeded random mix of fills, hits,
//! relocated hits, state updates and invalidations. One recomputes its
//! stale sets after every operation (what refreshing each set on every
//! mutation gives); the other only when a PV is read. Every PV bit, every
//! `nextRS` pick and every fill outcome must agree.

use super::*;
use std::collections::HashSet;
use ziv_common::config::SystemConfig;
use ziv_common::CoreId;
use ziv_directory::DirectoryMode;
use ziv_replacement::PolicyKind;

const LEVELS: [PropertyLevel; 4] = [
    PropertyLevel::Invalid,
    PropertyLevel::Graded,
    PropertyLevel::LikelyDead,
    PropertyLevel::NotInPrC,
];

/// 2 banks × 8 sets × 4 ways, over a pool of four times as many lines.
const POOL: u64 = 256;

fn ziv_llc(property: ZivProperty, policy: PolicyKind) -> SharedLlc {
    let cfg = LlcConfig::from_total_capacity(64 * 64, 4, 2);
    SharedLlc::new(
        cfg,
        LlcMode::Ziv(property),
        |b| policy.build(cfg.bank_geometry, b as u64),
        7,
    )
}

fn ctx(line: LineAddr, core: CoreId, seq: u64) -> AccessCtx {
    AccessCtx::demand(line, 0x400 + line.raw() % 16, core, seq, seq)
}

/// Reads every PV bit and takes one `nextRS` per level from both LLCs.
fn assert_same_reads(eager: &mut SharedLlc, lazy: &mut SharedLlc, step: u64) {
    for b in 0..eager.bank_count() {
        let bank = BankId::new(b);
        for level in LEVELS {
            let sets = eager.config().bank_geometry.sets;
            for set in 0..sets {
                assert_eq!(
                    eager.bank_mut(bank).pv(level).get(set),
                    lazy.bank_mut(bank).pv(level).get(set),
                    "step {step}: bank {b} set {set} {level:?} bit"
                );
            }
            assert_eq!(
                eager.bank_mut(bank).take_next_rs(level),
                lazy.bank_mut(bank).take_next_rs(level),
                "step {step}: bank {b} {level:?} nextRS"
            );
        }
    }
}

/// Runs the random mix; returns (relocations, relocated hits) so the
/// caller can check the interesting paths were exercised.
fn differential(property: ZivProperty, policy: PolicyKind, seed: u64) -> (u64, u64) {
    let mut eager = ziv_llc(property, policy);
    let mut lazy = ziv_llc(property, policy);
    let mut dir = SparseDirectory::new(&SystemConfig::scaled(), DirectoryMode::ZeroDev);
    let mut rng = SimRng::seed_from_u64(seed);
    let (mut relocations, mut relocated_hits) = (0, 0);
    for seq in 0..6_000u64 {
        let resident = eager.resident_blocks();
        let core = CoreId::new(rng.below_usize(4));
        let pick = |rng: &mut SimRng, relocated: Option<bool>| {
            let candidates: Vec<_> = resident
                .iter()
                .filter(|(_, s)| relocated.is_none_or(|r| s.relocated == r))
                .collect();
            (!candidates.is_empty()).then(|| *candidates[rng.below_usize(candidates.len())])
        };
        match rng.below(100) {
            // Demand fill of a line resident nowhere in the LLC. The
            // requester now holds it privately.
            0..40 => {
                let lines: HashSet<_> = resident.iter().map(|(_, s)| s.line).collect();
                let line = LineAddr::new(rng.below(POOL));
                if lines.contains(&line) {
                    continue;
                }
                dir.record_fill(line, core);
                let c = ctx(line, core, seq);
                let out = eager.fill(line, &c, &dir, core, seq);
                assert_eq!(
                    out,
                    lazy.fill(line, &c, &dir, core, seq),
                    "step {seq}: fill"
                );
                // Inclusive evictions back-invalidate; relocation-set
                // victims were never privately cached.
                if let Some(ev) = out.evicted {
                    dir.free_line(ev.line);
                }
                if let Some(r) = out.relocation {
                    relocations += 1;
                    if let Some(ev) = r.evicted_from_rs {
                        dir.free_line(ev.line);
                    }
                }
            }
            // Demand hit in the home set: the block is pulled back into
            // a private cache.
            40..60 => {
                if let Some((loc, st)) = pick(&mut rng, Some(false)) {
                    dir.record_fill(st.line, core);
                    let c = ctx(st.line, core, seq);
                    assert_eq!(eager.on_hit(loc, &c), lazy.on_hit(loc, &c));
                }
            }
            // Hit on a relocated block through the directory.
            60..72 => {
                if let Some((loc, st)) = pick(&mut rng, Some(true)) {
                    relocated_hits += 1;
                    let c = ctx(st.line, core, seq);
                    eager.on_relocated_hit(loc, &c);
                    lazy.on_relocated_hit(loc, &c);
                }
            }
            // Private eviction notice: the last private copy leaves and
            // CHAR may call the block dead.
            72..92 => {
                if let Some((loc, st)) = pick(&mut rng, Some(false)) {
                    dir.free_line(st.line);
                    let dead = rng.chance(0.5);
                    let notice = |s: &mut LlcState| {
                        s.not_in_prc = true;
                        s.likely_dead = dead;
                    };
                    eager.update_state(loc, notice);
                    lazy.update_state(loc, notice);
                }
            }
            // Invalidation (relocated-block death, directory eviction).
            _ => {
                if let Some((loc, st)) = pick(&mut rng, None) {
                    dir.free_line(st.line);
                    assert_eq!(eager.invalidate(loc), lazy.invalidate(loc));
                }
            }
        }
        for b in 0..eager.bank_count() {
            eager.bank_mut(BankId::new(b)).sync_pvs();
        }
        if rng.chance(0.1) {
            assert_same_reads(&mut eager, &mut lazy, seq);
        }
    }
    assert_same_reads(&mut eager, &mut lazy, u64::MAX);
    (relocations, relocated_hits)
}

#[test]
fn lazy_pv_upkeep_matches_eager_upkeep() {
    for (property, policy) in [
        (ZivProperty::LruNotInPrC, PolicyKind::Lru),
        (ZivProperty::MaxRrpvLikelyDead, PolicyKind::Hawkeye),
        (ZivProperty::LruNotInPrC, PolicyKind::Hawkeye),
    ] {
        for seed in [1, 2, 3] {
            let (relocations, relocated_hits) = differential(property, policy, seed);
            assert!(
                relocations > 50 && relocated_hits > 50,
                "{property:?}/{policy:?} seed {seed}: {relocations} relocation(s), \
                 {relocated_hits} relocated hit(s)"
            );
        }
    }
}
