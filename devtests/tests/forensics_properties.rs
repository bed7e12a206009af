//! Property-based tests of the causal forensics observatory: under
//! arbitrary access interleavings the blame matrix conserves exactly
//! against the hierarchy's `inclusion_victims` counter and the latency
//! observatory's refetch account, ZIV never opens a chain, and the
//! observatory's unit-level books balance under arbitrary
//! open / victim / close / victim-table take / refetch scripts.

use proptest::prelude::*;
use ziv::prelude::*;
use ziv_common::addr::LineAddr;
use ziv_common::config::{CacheGeometry, DramParams, LlcConfig, NocParams};
use ziv_core::observe::{FlightRecorder, ObserveConfig, VictimTable};
use ziv_core::{ChainKind, ForensicsObservatory, VictimReason};

fn tiny(cores: usize) -> SystemConfig {
    SystemConfig {
        cores,
        l1i: CacheGeometry::new(2, 2),
        l1d: CacheGeometry::new(2, 2),
        l1_latency: 0,
        l2: CacheGeometry::new(4, 2),
        l2_latency: 4,
        llc: LlcConfig::from_total_capacity(128 * 64, 4, 2),
        dir_ratio: DirRatio::X2,
        dir_base_ways: 8,
        noc: NocParams::table1(),
        dram: DramParams::ddr3_2133(),
        base_cpi: 0.25,
        scale_denominator: 1,
    }
}

/// One step of an arbitrary access sequence.
#[derive(Debug, Clone, Copy)]
struct Step {
    core: usize,
    line: u64,
    write: bool,
}

fn step_strategy(cores: usize) -> impl Strategy<Value = Step> {
    (0..cores, 0u64..400, any::<bool>()).prop_map(|(core, line, write)| Step { core, line, write })
}

/// Runs `steps` through a tiny hierarchy with the latency and forensics
/// observatories attached, returning the final counters and reports.
fn run_observed(
    mode: LlcMode,
    policy: PolicyKind,
    steps: &[Step],
) -> (u64, ziv_core::LatencyReport, ziv_core::ForensicsReport) {
    let sys = tiny(3);
    let banks = sys.llc.banks;
    let sets = sys.llc.bank_geometry.sets as usize;
    let cfg = HierarchyConfig::new(sys).with_mode(mode).with_policy(policy);
    let mut h = CacheHierarchy::new(&cfg);
    let observe = ObserveConfig {
        latency: true,
        forensics: true,
        ..ObserveConfig::disabled()
    };
    h.attach_recorder(FlightRecorder::new(&observe, 3, banks, sets).expect("recorder on"));
    let mut now = 0u64;
    for (i, s) in steps.iter().enumerate() {
        let addr = Addr::new(s.line * 64);
        let a = if s.write {
            Access::write(CoreId::new(s.core), addr, 0x400 + s.line % 32)
        } else {
            Access::read(CoreId::new(s.core), addr, 0x400 + s.line % 32)
        };
        now += 1 + h.access(&a, now, i as u64);
    }
    let victims = h.metrics().inclusion_victims;
    let rec = h.take_recorder().expect("recorder attached").finish();
    (
        victims,
        rec.latency.expect("latency on"),
        rec.forensics.expect("forensics on"),
    )
}

/// One scripted chain fed straight into a [`ForensicsObservatory`]:
/// which core instigates, which cores lose a private copy, and whether
/// a victim later re-fetches the line.
#[derive(Debug, Clone, Copy)]
struct ChainScript {
    eci: bool,
    instigator: usize,
    line: u64,
    victim_mask: u8, // low 3 bits: which of the 3 cores are victimized
    refetch_cycles: u64,
}

fn chain_strategy() -> impl Strategy<Value = ChainScript> {
    (any::<bool>(), 0usize..3, 0u64..96, 0u8..8, 0u64..500).prop_map(
        |(eci, instigator, line, victim_mask, refetch_cycles)| ChainScript {
            eci,
            instigator,
            line,
            victim_mask,
            refetch_cycles,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under arbitrary interleavings, every inclusive mode's blame
    /// matrix holds exactly `Metrics::inclusion_victims` entries, its
    /// refetch cycles agree with the latency observatory's independent
    /// account, and the per-set/per-phase rollups partition the same
    /// population.
    #[test]
    fn blame_matrix_conserves_under_arbitrary_interleavings(
        steps in prop::collection::vec(step_strategy(3), 200..1200),
        mode_idx in 0usize..6,
    ) {
        let mode = [
            LlcMode::Inclusive,
            LlcMode::Qbs,
            LlcMode::Sharp,
            LlcMode::CharOnBase,
            LlcMode::Eci,
            LlcMode::Ric,
        ][mode_idx];
        let (victims, latency, forensics) = run_observed(mode, PolicyKind::Lru, &steps);
        prop_assert_eq!(forensics.total_victims(), victims);
        prop_assert_eq!(
            forensics.total_refetch_cycles(),
            latency.inclusion_victim_refetch_cycles(),
            "refetch accounts disagree under {:?}", mode
        );
    }

    /// ZIV modes never open a chain, no matter the interleaving — the
    /// observatory-level restatement of the zero-inclusion-victim
    /// guarantee.
    #[test]
    fn ziv_opens_no_chains_under_arbitrary_interleavings(
        steps in prop::collection::vec(step_strategy(3), 200..1000),
        prop_idx in 0usize..3,
    ) {
        let prop_kind = [
            ZivProperty::NotInPrC,
            ZivProperty::LruNotInPrC,
            ZivProperty::LikelyDead,
        ][prop_idx];
        let (victims, _, forensics) =
            run_observed(LlcMode::Ziv(prop_kind), PolicyKind::Lru, &steps);
        prop_assert_eq!(victims, 0);
        prop_assert_eq!(forensics.chains_recorded, 0);
        prop_assert_eq!(forensics.total_victims(), 0);
        prop_assert!(forensics.chains.is_empty());
    }

    /// Unit-level bookkeeping: an arbitrary script of chains keeps the
    /// observatory's books balanced — the matrix total equals the
    /// victims fed in, victimless chains vanish, the ring keeps the
    /// last ≤256 chains in seq order, and each victimization explains
    /// at most one refetch.
    #[test]
    fn observatory_books_balance_under_arbitrary_chain_scripts(
        script in prop::collection::vec(chain_strategy(), 1..400),
    ) {
        let mut obs = ForensicsObservatory::new(3, 2, 4);
        let mut table = VictimTable::new(3);
        let mut fed_victims = 0u64;
        let mut kept_chains = 0u64;
        let mut eci_kept = 0u64;
        let mut fed_refetch_cycles = 0u64;
        for (i, c) in script.iter().enumerate() {
            let kind = if c.eci { ChainKind::Eci } else { ChainKind::Inclusive };
            let line = LineAddr::new(c.line);
            obs.open_chain(
                kind,
                CoreId::new(c.instigator),
                i as u64,
                i as u64 * 10,
                line,
                VictimReason::Baseline,
            );
            for v in 0..3 {
                if c.victim_mask & (1 << v) != 0 {
                    let seq = obs.chain_victim(CoreId::new(v));
                    table.note(CoreId::new(v), line, CoreId::new(c.instigator), seq);
                    fed_victims += 1;
                }
            }
            obs.close_chain();
            if c.victim_mask & 7 != 0 {
                kept_chains += 1;
                if c.eci {
                    eci_kept += 1;
                }
            }
            // The first victimized core comes back for the line: the
            // take must name this chain, and a second take must miss
            // (one victimization explains at most one refetch).
            if let Some(v) = (0..3).find(|v| c.victim_mask & (1 << v) != 0) {
                let entry = table
                    .take(CoreId::new(v), line)
                    .expect("victimized line must be in the table");
                prop_assert_eq!(entry.instigator.index(), c.instigator);
                obs.record_refetch(entry.instigator, CoreId::new(v), entry.chain_seq, c.refetch_cycles);
                fed_refetch_cycles += c.refetch_cycles;
                prop_assert!(table.take(CoreId::new(v), line).is_none());
            }
        }
        let report = obs.finish();
        prop_assert_eq!(report.total_victims(), fed_victims);
        prop_assert_eq!(report.chains_recorded, kept_chains);
        prop_assert_eq!(report.eci_chains, eci_kept);
        prop_assert_eq!(report.inclusive_chains, kept_chains - eci_kept);
        prop_assert_eq!(report.total_refetch_cycles(), fed_refetch_cycles);
        prop_assert_eq!(
            report.chains.len() as u64,
            kept_chains.min(256),
            "the ring keeps the last ≤256 chains"
        );
        for pair in report.chains.windows(2) {
            prop_assert!(pair[0].seq < pair[1].seq, "ring stays in seq order");
        }
        let by_set: u64 = report.set_victims.iter().sum();
        let by_phase: u64 = report.phase_victims.iter().sum();
        prop_assert_eq!(by_set, fed_victims);
        prop_assert_eq!(by_phase, fed_victims);
    }
}
