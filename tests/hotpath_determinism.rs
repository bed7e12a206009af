//! Differential determinism checks for the allocation-free access hot
//! path (DESIGN.md §8): rewriting the sharer-iteration, victim-ranking,
//! and fused tag-probe paths must leave simulation behavior
//! bit-for-bit unchanged. Two guards:
//!
//! 1. every LLC mode, run twice under the every-access invariant
//!    auditor, produces identical [`ziv::sim::RunResult`]s (metrics,
//!    per-core stats, everything `PartialEq` covers);
//! 2. the smoke campaign, run twice from scratch, writes byte-identical
//!    ledgers and grid CSVs — the cell digests and serialized metrics
//!    the resumable runner trusts for caching.

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
