//! End-to-end drills of the live telemetry bus: a watched campaign
//! must publish consistent snapshots a concurrent reader can follow,
//! end with the finished flag set, and — the observe-never-steer
//! contract — leave `ledger.jsonl` / `grid.csv` / `summary.csv`
//! byte-identical to an unwatched run of the same grid.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use ziv::harness::{campaigns, run_campaign, CampaignParams, NullSink, RunnerConfig};
use ziv::telemetry::{TelemetryReader, SEGMENT_FILE};

fn temp_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir()
        .join("ziv-telemetry-it")
        .join(format!("{name}-{}", std::process::id()))
}

/// Sets the flag when dropped, including while unwinding.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn read(dir: &std::path::Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("read {file}: {e}"))
}

#[test]
fn watched_campaign_publishes_and_stays_byte_identical_to_unwatched() {
    let params = CampaignParams::tiny();
    let campaign = campaigns::by_name("smoke", &params).expect("smoke campaign");

    // Pass 1: unwatched reference run. Single-threaded so the ledger
    // append order is deterministic and byte-comparable.
    let plain_dir = temp_dir("plain");
    std::fs::remove_dir_all(&plain_dir).ok();
    let plain_cfg = RunnerConfig {
        params: Some(params),
        ..RunnerConfig::new(plain_dir.clone())
    };
    let plain = run_campaign(&campaign, &plain_cfg, &NullSink).expect("unwatched campaign");
    assert!(plain.failures.is_empty());
    assert!(
        !plain_dir.join(SEGMENT_FILE).exists(),
        "telemetry off must not create a segment"
    );

    // Pass 2: watched run with a concurrent reader polling snapshots
    // the whole time.
    let live_dir = temp_dir("live");
    std::fs::remove_dir_all(&live_dir).ok();
    let live_cfg = RunnerConfig {
        params: Some(params),
        telemetry: true,
        ..RunnerConfig::new(live_dir.clone())
    };
    let abandoned = AtomicBool::new(false);
    let (outcome, observed) = std::thread::scope(|scope| {
        let live_dir = &live_dir;
        let campaign = &campaign;
        let abandoned = &abandoned;
        // If the campaign side panics, this flags the watcher to give up
        // at once, so the scope joins and the test fails by name instead
        // of waiting out the watcher's deadline.
        let _abandon_watcher = SetOnDrop(abandoned);
        let watcher = scope.spawn(move || {
            let segment = live_dir.join(SEGMENT_FILE);
            let deadline = Instant::now() + Duration::from_secs(120);
            let reader = loop {
                if let Ok(r) = TelemetryReader::open(&segment) {
                    break r;
                }
                if abandoned.load(Ordering::Acquire) {
                    return (0, 0);
                }
                assert!(
                    Instant::now() < deadline,
                    "telemetry segment never appeared"
                );
                std::thread::sleep(Duration::from_millis(5));
            };
            let mut snapshots = 0u64;
            let mut mid_run = 0u64;
            loop {
                if let Some(snap) = reader.snapshot() {
                    snapshots += 1;
                    assert_eq!(snap.campaign.total, campaign.total_cells() as u64);
                    assert!(snap.campaign.done <= snap.campaign.total);
                    if snap.heartbeat.finished {
                        assert_eq!(snap.campaign.done, snap.campaign.total);
                        assert_eq!(snap.campaign.running, 0);
                        return (snapshots, mid_run);
                    }
                    mid_run += 1;
                }
                if abandoned.load(Ordering::Acquire) {
                    return (snapshots, mid_run);
                }
                assert!(
                    Instant::now() < deadline,
                    "writer never published final state"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let outcome = run_campaign(campaign, &live_cfg, &NullSink).expect("watched campaign");
        (outcome, watcher.join().expect("watcher thread"))
    });
    assert!(outcome.failures.is_empty());
    let (snapshots, mid_run) = observed;
    assert!(snapshots > 0, "the reader never got a consistent snapshot");
    // The ticker publishes before the first cell settles, so at least
    // one snapshot must predate the finished flag.
    assert!(mid_run > 0, "no mid-run snapshot was captured");

    // The contract: telemetry observes, never steers. Every ledgered
    // artifact is byte-identical to the unwatched pass.
    for file in ["ledger.jsonl", "grid.csv", "summary.csv"] {
        assert_eq!(
            read(&plain_dir, file),
            read(&live_dir, file),
            "{file} diverged between watched and unwatched runs"
        );
    }

    // The segment survives the campaign with final state intact — a
    // late watcher still reads "finished" instead of spinning.
    let reader = TelemetryReader::open(&live_dir.join(SEGMENT_FILE)).expect("segment persists");
    let snap = reader.snapshot().expect("final snapshot");
    assert!(snap.heartbeat.finished);
    assert_eq!(snap.writer_pid, std::process::id() as u64);

    std::fs::remove_dir_all(&plain_dir).ok();
    std::fs::remove_dir_all(&live_dir).ok();
}

#[test]
fn all_cached_watched_resume_publishes_finished_immediately() {
    let params = CampaignParams::tiny();
    let campaign = campaigns::by_name("smoke", &params).expect("smoke campaign");
    let dir = temp_dir("cached");
    std::fs::remove_dir_all(&dir).ok();
    let cfg = RunnerConfig {
        params: Some(params),
        ..RunnerConfig::new(dir.clone())
    };
    run_campaign(&campaign, &cfg, &NullSink).expect("seed campaign");

    // Resume with every cell cached: the bus must still start and
    // publish a finished segment, so an attached watcher exits clean.
    let cfg = RunnerConfig {
        resume: true,
        telemetry: true,
        ..cfg
    };
    let outcome = run_campaign(&campaign, &cfg, &NullSink).expect("cached resume");
    assert_eq!(outcome.telemetry.executed_cells, 0);
    let reader = TelemetryReader::open(&dir.join(SEGMENT_FILE)).expect("segment exists");
    let snap = reader.snapshot().expect("snapshot");
    assert!(snap.heartbeat.finished);
    assert_eq!(snap.campaign.done, campaign.total_cells() as u64);
    assert_eq!(snap.campaign.cached, campaign.total_cells() as u64);

    std::fs::remove_dir_all(&dir).ok();
}
