//! Tiny-size runs of every workload through the public entry point.

use std::path::PathBuf;
use ziv_common::json::{self, JsonValue};
use ziv_core::FaultInjection;
use ziv_perfbench::bench::{run, run_with, Expect, Options, Outcome};
use ziv_perfbench::check::Digests;
use ziv_perfbench::grid::{Size, Workload, DEFAULT_SEED};

fn options(workload: Workload, trace: bool, tag: &str) -> Options {
    Options {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}")),
    }
}

/// Metric names `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let doc = json::parse(text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn names(o: &Outcome) -> Vec<String> {
    o.report.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        for trace in [false, true] {
            let o = run(&options(w, trace, w.name()), &Expect::FirstPass).expect("run completes");
            assert_eq!(
                o.report.failed,
                0,
                "{} trace={trace}: {:?}",
                w.name(),
                o.notes
            );
            assert!(o.report.attempted > 0);
            let want = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&names(&o), want, "{} trace={trace}", w.name());
            if !trace {
                for m in &o.report.metrics {
                    assert!(m.value > 0.0, "{}: {} is not positive", w.name(), m.name);
                }
            }
        }
    }
}

#[test]
fn wrong_reference_digest_fails_every_cell() {
    let opts = options(Workload::PrivateBound, false, "wrong-ref");
    let good = run(&opts, &Expect::FirstPass).unwrap();
    let cells = good.digests.len() as u64;
    assert!(cells > 0);
    let ok = run(&opts, &Expect::Reference(good.digests.clone())).unwrap();
    assert_eq!(ok.report.failed, 0, "{:?}", ok.notes);
    let wrong: Digests = good
        .digests
        .iter()
        .map(|(k, d)| (k.clone(), d ^ 1))
        .collect();
    let bad = run(&opts, &Expect::Reference(wrong)).unwrap();
    assert_eq!(bad.report.failed, cells, "every timed cell is caught");
    assert!(bad
        .notes
        .iter()
        .any(|n| n.contains("differs from reference")));
}

#[test]
fn panicking_cell_counts_as_failed_without_aborting() {
    let inject = |g: &mut ziv_perfbench::grid::Grid| {
        let spec = g.campaign.specs[0].clone();
        g.campaign.specs[0] = spec.with_fault(FaultInjection::PanicCore { at_access: 50 });
    };
    for w in [Workload::LlcBound, Workload::Sweep] {
        let opts = options(w, false, &format!("panic-{}", w.name()));
        let o = run_with(&opts, &Expect::FirstPass, &inject).expect("the run completes");
        assert!(o.report.failed > 0, "{}", w.name());
        assert!(
            o.report.failed < o.report.attempted,
            "{}: other cells still pass",
            w.name()
        );
        assert!(
            o.notes.iter().any(|n| n.contains("panic")),
            "{}: {:?}",
            w.name(),
            o.notes
        );
    }
}
