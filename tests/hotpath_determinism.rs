//! Differential determinism checks for the allocation-free access hot
//! path (DESIGN.md §8): rewriting the sharer-iteration, victim-ranking,
//! and fused tag-probe paths must leave simulation behavior
//! bit-for-bit unchanged. Three guards:
//!
//! 1. every LLC mode, run twice under the every-access invariant
//!    auditor, produces identical [`ziv::sim::RunResult`]s (metrics,
//!    per-core stats, everything `PartialEq` covers);
//! 2. the smoke campaign, run twice from scratch, writes byte-identical
//!    ledgers and grid CSVs — the cell digests and serialized metrics
//!    the resumable runner trusts for caching;
//! 3. golden digests pin a grid and every mode × policy pair to fixed
//!    values, so a rewrite cannot drift while staying self-consistent.

use std::fs;
use std::path::PathBuf;
use ziv::common::Fnv1a;
use ziv::core::AuditCadence;
use ziv::harness::{campaigns, run_campaign, CampaignParams, NullSink, RunnerConfig};
use ziv::prelude::*;
use ziv::sim::{run_one_checked, RunOptions};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ziv-hotpath-it")
        .join(format!("{name}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Every LLC mode the CLI exposes — the hot-path rewrite touched
/// mode-shared code (directory iteration, rank buffers, fused probes),
/// so every mode must be re-proven deterministic, not just the ZIV
/// ones. The MaxRrpv properties require an RRPV-graded policy, so each
/// mode carries the policy it runs under.
fn all_modes() -> Vec<(LlcMode, PolicyKind)> {
    use ZivProperty::*;
    vec![
        (LlcMode::Inclusive, PolicyKind::Lru),
        (LlcMode::NonInclusive, PolicyKind::Lru),
        (LlcMode::Qbs, PolicyKind::Lru),
        (LlcMode::Sharp, PolicyKind::Lru),
        (LlcMode::CharOnBase, PolicyKind::Lru),
        (LlcMode::Tlh { hint_one_in: 8 }, PolicyKind::Lru),
        (LlcMode::Eci, PolicyKind::Lru),
        (LlcMode::Ric, PolicyKind::Lru),
        (LlcMode::WayPartitioned, PolicyKind::Lru),
        (LlcMode::Ziv(NotInPrC), PolicyKind::Lru),
        (LlcMode::Ziv(LruNotInPrC), PolicyKind::Lru),
        (LlcMode::Ziv(LikelyDead), PolicyKind::Lru),
        (LlcMode::Ziv(MaxRrpvNotInPrC), PolicyKind::Srrip),
        (LlcMode::Ziv(MaxRrpvLikelyDead), PolicyKind::Hawkeye),
    ]
}

#[test]
fn every_mode_is_deterministic_under_every_access_audit() {
    let sys = SystemConfig::scaled();
    let scale = ScaleParams::from_system(&sys);
    // Small trace: the every-access auditor walks the whole hierarchy
    // per access, and this runs twice per mode (28 audited runs).
    let wl = mixes::heterogeneous(0, 2, 150, 0x2026, scale);
    let opts = RunOptions {
        audit: AuditCadence::EveryAccess,
        budget: None,
        ..RunOptions::default()
    };
    for (mode, policy) in all_modes() {
        let spec = RunSpec::new(mode.label(), sys.clone())
            .with_mode(mode)
            .with_policy(policy);
        let a = run_one_checked(&spec, &wl, &opts)
            .unwrap_or_else(|e| panic!("{}: first run failed: {e}", spec.label));
        let b = run_one_checked(&spec, &wl, &opts)
            .unwrap_or_else(|e| panic!("{}: second run failed: {e}", spec.label));
        assert_eq!(a, b, "{} diverged across identical runs", spec.label);
        assert_eq!(a.metrics, b.metrics);
    }
}

#[test]
fn smoke_campaign_ledger_is_byte_identical_across_runs() {
    let params = CampaignParams::tiny();
    let campaign = campaigns::by_name("smoke", &params).expect("smoke campaign is registered");
    let run_pass = |name: &str| {
        let dir = temp_dir(name);
        let cfg = RunnerConfig {
            threads: 1, // deterministic ledger append order
            audit: AuditCadence::EveryAccess,
            params: Some(params),
            ..RunnerConfig::new(dir.clone())
        };
        let outcome = run_campaign(&campaign, &cfg, &NullSink).expect("campaign runs");
        assert!(outcome.failures.is_empty(), "no cell may fail");
        let ledger = fs::read_to_string(&outcome.ledger_path).expect("ledger exists");
        let grid_csv = fs::read(&outcome.grid_csv).expect("grid csv exists");
        fs::remove_dir_all(&dir).ok();
        (ledger, grid_csv, outcome)
    };
    let (ledger_a, grid_a, out_a) = run_pass("pass-a");
    let (ledger_b, grid_b, out_b) = run_pass("pass-b");
    assert!(!ledger_a.is_empty());
    assert_eq!(
        ledger_a, ledger_b,
        "campaign ledgers (cell digests + serialized metrics) must be byte-identical"
    );
    assert_eq!(grid_a, grid_b, "grid CSVs must be byte-identical");
    assert_eq!(out_a.grid.len(), campaign.total_cells());
    for (a, b) in out_a.grid.iter().zip(out_b.grid.iter()) {
        assert_eq!(
            a.result.metrics, b.result.metrics,
            "{} × {} metrics diverged",
            a.result.label, a.result.workload
        );
    }
}

/// Golden pin on the grid runner: a 2 × 2 grid digests to a fixed value
/// at 1 and at 4 worker threads.
#[test]
fn grid_matches_its_golden_digest_at_every_thread_count() {
    let sys = SystemConfig::scaled();
    let scale = ScaleParams::from_system(&sys);
    let specs = vec![
        RunSpec::new("I-LRU", sys.clone()),
        RunSpec::new("ZIV-LikelyDead", sys).with_mode(LlcMode::Ziv(ZivProperty::LikelyDead)),
    ];
    let wls = vec![
        mixes::heterogeneous(0, 2, 1_500, 0x2026, scale),
        mixes::homogeneous(apps::app_by_name("hotl2").unwrap(), 2, 1_500, 5, scale),
    ];
    for threads in [1, 4] {
        let grid = run_grid(&specs, &wls, threads);
        assert_eq!(grid.len(), 4);
        let mut h = Fnv1a::new();
        for g in &grid {
            h.write_usize(g.spec_index);
            h.write_usize(g.workload_index);
            h.write_str(&g.result.label);
            h.write_str(&g.result.workload);
            for c in &g.result.cores {
                h.write_u64(c.instructions);
                h.write_u64(c.cycles);
            }
            h.write_str(&g.result.metrics.to_json().to_string());
        }
        assert_eq!(
            h.finish(),
            0x4247dab078f0038d,
            "grid at {threads} thread(s)"
        );
    }
}

/// [`all_modes`] plus the ZIV properties whose relocation-set search the
/// paper pairs with LRU, re-run under Hawkeye: the graded property bit
/// (`LRUNotInPrC` / `MaxRRPVNotInPrC`) and the `LikelyDeadNotInPrC` bit
/// are each read under a policy other than the one they were designed
/// for.
fn every_mode_policy_pair() -> Vec<(LlcMode, PolicyKind)> {
    use ZivProperty::*;
    let mut pairs = all_modes();
    pairs.extend([
        (LlcMode::Ziv(LruNotInPrC), PolicyKind::Hawkeye),
        (LlcMode::Ziv(LikelyDead), PolicyKind::Hawkeye),
        (LlcMode::Ziv(MaxRrpvNotInPrC), PolicyKind::Hawkeye),
    ]);
    pairs
}

/// Golden pin on every mode × policy pair: an 8-core heterogeneous mix
/// run through `run_one` digests to a fixed value per pair. Rewriting the
/// property-vector upkeep or the victim-ranking path must leave every
/// pair byte-identical, including the ZIV properties whose relocation
/// sets come from the graded bit.
#[test]
fn every_mode_matches_its_golden_digest() {
    let sys = SystemConfig::scaled();
    let scale = ScaleParams::from_system(&sys);
    let wl = mixes::heterogeneous(1, 8, 4_000, 0x2026, scale);
    let mut got = Vec::new();
    for (mode, policy) in every_mode_policy_pair() {
        let label = format!("{}-{}", mode.label(), policy.label());
        let spec = RunSpec::new(label.clone(), sys.clone())
            .with_mode(mode)
            .with_policy(policy);
        let r = run_one(&spec, &wl);
        if mode.is_ziv() {
            assert!(
                r.metrics.relocations > 0,
                "{label}: the mix must exercise relocation-set selection"
            );
        }
        let mut h = Fnv1a::new();
        h.write_str(&r.label);
        h.write_str(&r.workload);
        for c in &r.cores {
            h.write_u64(c.instructions);
            h.write_u64(c.cycles);
        }
        h.write_str(&r.metrics.to_json().to_string());
        got.push((label, h.finish()));
    }
    let want: &[(&str, u64)] = &[
        ("I-LRU", 0x55f829ddfa0a1401),
        ("NI-LRU", 0xafeab5167550ce14),
        ("QBS-LRU", 0xb8f9ea9e859fce09),
        ("SHARP-LRU", 0x25dc9b155e91fc19),
        ("CHARonBase-LRU", 0x9db4b1b454bd0bc3),
        ("TLH/8-LRU", 0x3f9c407832aafd96),
        ("ECI-LRU", 0xe365df4a729d8619),
        ("RIC-LRU", 0x0f773e5647c75643),
        ("WayPart-LRU", 0x51a4ac966d9e2e5a),
        ("ZIV-NotInPrC-LRU", 0x254044b28f062e73),
        ("ZIV-LRUNotInPrC-LRU", 0xa0251aa4d2262bed),
        ("ZIV-LikelyDead-LRU", 0x9066f6719ae2f7dc),
        ("ZIV-MRNotInPrC-SRRIP", 0xfa6e845bdd54d660),
        ("ZIV-MRLikelyDead-Hawkeye", 0x2ce14df16a4a0036),
        ("ZIV-LRUNotInPrC-Hawkeye", 0x5ecc0b0c6389acc8),
        ("ZIV-LikelyDead-Hawkeye", 0xd715c3f9daa9b0f7),
        ("ZIV-MRNotInPrC-Hawkeye", 0xceb2e4106cfefec3),
    ];
    let got: Vec<(&str, u64)> = got.iter().map(|(l, d)| (l.as_str(), *d)).collect();
    for ((label, digest), (_, pinned)) in got.iter().zip(want) {
        if digest != pinned {
            eprintln!("{label}: digest {digest:#018x}, pinned {pinned:#018x}");
        }
    }
    assert_eq!(got, want);
}
