//! The benchmark's workloads: which configurations run on which
//! generated traces, and why.

use ziv_common::config::SystemConfig;
use ziv_core::{LlcMode, ZivProperty};
use ziv_harness::Campaign;
use ziv_replacement::PolicyKind;
use ziv_sim::RunSpec;
use ziv_workloads::{apps, Recipe, ScaleParams};

/// The workload seed used when none is given (the figure benches' seed).
pub const DEFAULT_SEED: u64 = 0x2026;

/// Worker threads of the `sweep` campaign. One, not one per vCPU: the
/// host-speed samples (`calib`) are taken on the worker's thread between
/// its cells, and beside a second worker they would time the program's
/// own contention. At 2 workers, sampled only around each pass, five
/// runs spread the sweep's `sim_accesses_per_s` by 16% and its
/// `cell_s_p90` by 24%.
pub const SWEEP_THREADS: usize = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8-core heterogeneous mixes whose footprints exceed the LLC.
    LlcBound,
    /// 8-core homogeneous mixes that fit in the private L2.
    PrivateBound,
    /// A campaign of many short cells through the harness.
    Sweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::LlcBound, Workload::PrivateBound, Workload::Sweep];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LlcBound => "llc-bound",
            Workload::PrivateBound => "private-bound",
            Workload::Sweep => "sweep",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a workload is built: `Full` is what the benchmark measures,
/// `Tiny` keeps the same shape at test-suite cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few hundred accesses per core, for tests.
    Tiny,
}

/// A workload's grid: the campaign (specs × recipes) plus the pairs of
/// spec indices `(ziv, inclusive baseline)` whose weighted speedup the
/// benchmark reports.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Specs × recipes.
    pub campaign: Campaign,
    /// `(ziv spec, inclusive spec with the same policy)`.
    pub pairs: Vec<(usize, usize)>,
}

impl Grid {
    /// A stable per-cell key for reference digests and trace spans.
    pub fn cell_key(&self, s: usize, w: usize) -> String {
        format!(
            "{}/{}#{w}",
            self.campaign.specs[s].label,
            self.campaign.recipes[w].workload_name()
        )
    }

    /// Nominal accesses of one cell (cores × trace length).
    pub fn nominal_accesses(&self, w: usize) -> u64 {
        let r = &self.campaign.recipes[w];
        (r.cores * r.accesses_per_core) as u64
    }
}

fn spec(mode: LlcMode, policy: PolicyKind) -> RunSpec {
    let policy_label = match policy {
        PolicyKind::Hawkeye => "Hawkeye",
        _ => "LRU",
    };
    let mode_label = match mode {
        LlcMode::Ziv(p) => format!("ZIV-{p:?}"),
        other => other.label(),
    };
    RunSpec::new(
        format!("{mode_label}-{policy_label}"),
        SystemConfig::scaled(),
    )
    .with_mode(mode)
    .with_policy(policy)
}

/// The ZIV property the paper pairs with each baseline policy.
fn ziv_for(policy: PolicyKind) -> LlcMode {
    match policy {
        PolicyKind::Hawkeye => LlcMode::Ziv(ZivProperty::MaxRrpvLikelyDead),
        _ => LlcMode::Ziv(ZivProperty::LikelyDead),
    }
}

/// The four configurations of the serial workloads, with their pairs.
fn four_modes() -> (Vec<RunSpec>, Vec<(usize, usize)>) {
    let mut specs = Vec::new();
    let mut pairs = Vec::new();
    for policy in [PolicyKind::Lru, PolicyKind::Hawkeye] {
        let base = specs.len();
        specs.push(spec(LlcMode::Inclusive, policy));
        specs.push(spec(ziv_for(policy), policy));
        pairs.push((base + 1, base));
    }
    (specs, pairs)
}

/// Builds `workload`'s grid from `seed`. Only the recipes depend on the
/// seed; the program receives the traces they generate.
pub fn grid(workload: Workload, seed: u64, size: Size) -> Grid {
    let scale = ScaleParams::from_system(&SystemConfig::scaled());
    let tiny = size == Size::Tiny;
    let (specs, pairs, recipes) = match workload {
        Workload::LlcBound => {
            // Six 8-core mixes deal each of the twelve applications
            // exactly four times whatever the seed, so the private-
            // resident, streaming, zipf and circular share is fixed and
            // no one mix the seed deals sets the slowest cells; 4000
            // accesses per core overflow the LLC, so inclusion victims
            // and ZIV relocations both occur in every mix.
            let (mixes, n) = if tiny { (3, 400) } else { (6, 4_000) };
            let (specs, pairs) = four_modes();
            let recipes = (0..mixes)
                .map(|i| Recipe::heterogeneous(i, 8, n, seed, scale))
                .collect();
            (specs, pairs, recipes)
        }
        Workload::PrivateBound => {
            // Footprints of at most the L2: each copy gets its own
            // trace seed so the grid has enough cells for tail figures.
            let (copies, n) = if tiny { (2, 400) } else { (8, 12_000) };
            let (specs, pairs) = four_modes();
            let recipes = ["hotl2", "tiles"]
                .iter()
                .flat_map(|name| {
                    let app = apps::app_by_name(name).expect("built-in application");
                    (0..copies).map(move |k| {
                        Recipe::homogeneous(app, 8, n, seed.wrapping_add(k * 0x9E37_79B9), scale)
                    })
                })
                .collect();
            (specs, pairs, recipes)
        }
        Workload::Sweep => {
            // Five LLC modes under both policies over a homogeneous mix
            // of every application: the seed changes trace contents but
            // not which application a cell runs, so the slowest cells
            // stay the same ones. Cells of 1500 accesses per core last
            // milliseconds, so the harness's own costs are a visible
            // share of a pass.
            let n = if tiny { 300 } else { 1_500 };
            let mut specs = Vec::new();
            let mut pairs = Vec::new();
            for policy in [PolicyKind::Lru, PolicyKind::Hawkeye] {
                let base = specs.len();
                for mode in [
                    LlcMode::Inclusive,
                    LlcMode::NonInclusive,
                    LlcMode::Qbs,
                    LlcMode::Sharp,
                    ziv_for(policy),
                ] {
                    specs.push(spec(mode, policy));
                }
                pairs.push((base + 4, base));
            }
            let apps: &[apps::AppSpec] = if tiny { &apps::APPS[..2] } else { &apps::APPS };
            let recipes = apps
                .iter()
                .map(|&a| Recipe::homogeneous(a, 4, n, seed, scale))
                .collect();
            (specs, pairs, recipes)
        }
    };
    Grid {
        campaign: Campaign {
            name: format!("perfbench-{}", workload.name()),
            description: format!("repository benchmark, {} workload", workload.name()),
            specs,
            recipes,
            baseline_spec: 0,
        },
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_grids_have_their_shape() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let g = grid(w, DEFAULT_SEED, Size::Full);
            for &(z, b) in &g.pairs {
                assert!(g.campaign.specs[z].mode.is_ziv());
                assert_eq!(g.campaign.specs[b].mode, LlcMode::Inclusive);
                assert_eq!(g.campaign.specs[z].policy, g.campaign.specs[b].policy);
            }
            let keys: std::collections::BTreeSet<String> = g
                .campaign
                .cells()
                .into_iter()
                .map(|(s, r)| g.cell_key(s, r))
                .collect();
            assert_eq!(keys.len(), g.campaign.total_cells(), "cell keys are unique");
        }
        assert!(
            grid(Workload::Sweep, DEFAULT_SEED, Size::Full)
                .campaign
                .total_cells()
                >= 100
        );
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn only_recipes_follow_the_seed() {
        let a = grid(Workload::LlcBound, 1, Size::Tiny);
        let b = grid(Workload::LlcBound, 2, Size::Tiny);
        assert_ne!(a.campaign.recipes, b.campaign.recipes);
        let labels = |g: &Grid| -> Vec<String> {
            g.campaign.specs.iter().map(|s| s.label.clone()).collect()
        };
        assert_eq!(labels(&a), labels(&b));
    }
}
