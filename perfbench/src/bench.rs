//! Running one workload: set-up, the timed passes, the output checks,
//! the ledger resume pass, and the traced run that yields per-layer
//! numbers.

use crate::calib::{HostClock, Span};
use crate::check::{self, Digests};
use crate::grid::{self, Grid, Size, Workload, SWEEP_THREADS};
use crate::probe::WindowProbe;
use crate::spans::{SpanId, Spans};
use crate::stats::{median, quartile_spread, tail, Report};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;
use ziv_common::json::JsonValue;
use ziv_core::CacheHierarchy;
use ziv_harness::{
    run_campaign, CampaignOutcome, CellTiming, LedgerWriter, NullSink, ProgressSink, RunnerConfig,
};
use ziv_sim::{
    run_one_checked, run_one_instrumented, LatencyComponent, ObserveConfig, ProfileSection,
    RunOptions, RunResult,
};
use ziv_workloads::Workload as Traces;

/// Set-ups per round after the first: a run of few, long rounds still
/// times set-up often enough for a steady median.
const SETUPS_PER_ROUND: usize = 3;
/// Resume passes repeat until this much time is spent (and at least
/// `RESUME_MIN_REPEATS` times): one pass takes milliseconds.
const RESUME_SECONDS: f64 = 1.0;
/// As `RESUME_SECONDS`, in each round of the untraced run.
const ROUND_RESUME_SECONDS: f64 = 0.2;
const RESUME_MIN_REPEATS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload-generation seed.
    pub seed: u64,
    /// Measurement time; passes start until it is spent (at least one).
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics instead.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Directory for ledgers, CSVs and the trace file.
    pub work_dir: PathBuf,
}

/// Digests compared against, per cell key.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The recorded reference (default seed, full size).
    Reference(Digests),
    /// Nothing recorded for these inputs: later passes must repeat the
    /// first pass's digests.
    FirstPass,
}

/// A finished run: the report plus the first pass's digests.
#[derive(Debug)]
pub struct Outcome {
    /// Metrics and failure accounting.
    pub report: Report,
    /// Digest of every cell that succeeded in the first pass.
    pub digests: Digests,
    /// Human-readable notes (failures, overhead verdicts).
    pub notes: Vec<String>,
}

/// Set-up output: the grid and its generated traces, plus the span of
/// every set-up so far. Each round sets up afresh, so set-up is timed as
/// often as the cells and across the whole run.
struct Setup {
    grid: Grid,
    traces: Vec<Traces>,
    /// Grid construction plus trace generation.
    setup: Vec<Span>,
    /// Trace generation alone.
    build: Vec<Span>,
}

impl Setup {
    fn new(opts: &Options, adjust: &dyn Fn(&mut Grid), clock: &HostClock) -> Setup {
        let start = clock.now();
        let mut grid = grid::grid(opts.workload, opts.seed, opts.size);
        adjust(&mut grid);
        let (traces, build) =
            clock.time(|| grid.campaign.recipes.iter().map(|r| r.build()).collect());
        Setup {
            grid,
            traces,
            setup: vec![Span {
                start,
                end: build.end,
            }],
            build: vec![build],
        }
    }

    /// Sets up again, in place of the previous grid and traces (dropped
    /// first, so two sets never coexist).
    fn redo(&mut self, opts: &Options, adjust: &dyn Fn(&mut Grid), clock: &HostClock) {
        self.traces = Vec::new();
        let fresh = Setup::new(opts, adjust, clock);
        self.setup.extend(fresh.setup);
        self.build.extend(fresh.build);
        self.grid = fresh.grid;
        self.traces = fresh.traces;
    }
}

/// Cell failures and attempts.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(why);
    }
}

/// One cell of a serial pass.
struct CellRun {
    spec: usize,
    recipe: usize,
    /// When the cell ran, on the host clock.
    span: Span,
    served: u64,
    result: Result<RunResult, String>,
    observations: Option<Box<ziv_sim::Observations>>,
    /// Host ns per access of each probe window, in order.
    windows: Vec<f64>,
}

/// How a serial pass drives the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassKind {
    /// `run_one_instrumented` with the window probe: the timed pass.
    Probed,
    /// As `Probed`, with the self-profiler and latency observatory on
    /// and `CacheHierarchy::new` timed on its own.
    Traced,
    /// `run_one_checked` with no probe: the probe-cost control.
    Unprobed,
}

struct Pass {
    cells: Vec<CellRun>,
    hierarchy_new_s: f64,
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Every cell of the grid once, in order, on this thread, with host
/// clock samples between cells. A cell that errors or panics is
/// recorded as failed; the pass goes on.
fn serial_pass(
    setup: &Setup,
    kind: PassKind,
    probe: &WindowProbe,
    clock: &mut HostClock,
    spans: &mut Spans,
    parent: Option<SpanId>,
) -> Pass {
    let campaign = &setup.grid.campaign;
    let run_opts = RunOptions {
        observe: if kind == PassKind::Traced {
            ObserveConfig {
                profile: true,
                latency: true,
                ..ObserveConfig::disabled()
            }
        } else {
            ObserveConfig::disabled()
        },
        ..RunOptions::default()
    };
    let mut cells = Vec::with_capacity(campaign.total_cells());
    let mut hierarchy_new_s = 0.0;
    for (s, w) in campaign.cells() {
        let spec = &campaign.specs[s];
        let traces = &setup.traces[w];
        let key = setup.grid.cell_key(s, w);
        if kind == PassKind::Traced {
            let id = spans.begin("hierarchy.new", parent, Some(key.clone()));
            let t0 = Instant::now();
            let h = CacheHierarchy::new(&spec.build_hierarchy_config(traces));
            hierarchy_new_s += t0.elapsed().as_secs_f64();
            drop(std::hint::black_box(h));
            spans.end(id, Vec::new());
        }
        clock.sample_if_due();
        probe.start_cell();
        let id = spans.begin("driver.run", parent, Some(key));
        let (out, span) = clock.time(|| {
            catch_unwind(AssertUnwindSafe(|| match kind {
                PassKind::Unprobed => (run_one_checked(spec, traces, &run_opts), None),
                _ => run_one_instrumented(spec, traces, &run_opts, None, Some(probe)),
            }))
        });
        let served = if kind == PassKind::Unprobed {
            0
        } else {
            probe.served()
        };
        spans.end(id, vec![("accesses_served".into(), JsonValue::u64(served))]);
        let (result, observations) = match out {
            Ok((Ok(r), obs)) => (Ok(r), obs),
            Ok((Err(e), obs)) => (Err(e.to_string()), obs),
            Err(p) => (Err(format!("panicked: {}", panic_message(p))), None),
        };
        cells.push(CellRun {
            spec: s,
            recipe: w,
            span,
            served,
            result,
            observations,
            windows: probe.take_windows(),
        });
    }
    clock.sample();
    Pass {
        cells,
        hierarchy_new_s,
    }
}

/// Checks every cell of a pass against `expect` (or, for a first pass
/// without a reference, only the invariants) and returns the digests of
/// the cells that passed.
fn check_pass(setup: &Setup, pass: &Pass, expect: Option<&Digests>, tally: &mut Tally) -> Digests {
    let mut digests = Digests::new();
    for c in &pass.cells {
        tally.attempted += 1;
        let key = setup.grid.cell_key(c.spec, c.recipe);
        let spec = &setup.grid.campaign.specs[c.spec];
        match &c.result {
            Ok(r) => match check::check_cell(&key, spec, r, expect) {
                Ok(d) => {
                    digests.insert(key, d);
                }
                Err(e) => tally.fail(e),
            },
            Err(e) => tally.fail(format!("{key}: {e}")),
        }
    }
    digests
}

/// Results of a pass keyed by `(spec, recipe)`, successful cells only.
fn results_of(cells: &[CellRun]) -> BTreeMap<(usize, usize), RunResult> {
    cells
        .iter()
        .filter_map(|c| {
            c.result
                .as_ref()
                .ok()
                .map(|r| ((c.spec, c.recipe), r.clone()))
        })
        .collect()
}

/// Geometric-mean weighted speedup of every ZIV cell over its inclusive
/// baseline (simulated), and how many pairs it covers.
fn ziv_speedup(grid: &Grid, results: &BTreeMap<(usize, usize), RunResult>) -> (f64, usize) {
    let mut log_sum = 0.0;
    let mut n = 0;
    for &(z, b) in &grid.pairs {
        for w in 0..grid.campaign.recipes.len() {
            if let (Some(rz), Some(rb)) = (results.get(&(z, w)), results.get(&(b, w))) {
                log_sum += rz.weighted_speedup(rb).ln();
                n += 1;
            }
        }
    }
    ((log_sum / n.max(1) as f64).exp(), n)
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A results directory removed again when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn fresh(path: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn runner(dir: &Path, threads: usize, resume: bool) -> RunnerConfig {
    RunnerConfig {
        threads,
        resume,
        ..RunnerConfig::new(dir)
    }
}

/// What the resume passes measured.
struct Resume {
    /// When each pass ran, on the host clock.
    passes: Vec<Span>,
    /// Cells served from the ledger, summed over passes.
    cached: usize,
    /// Cells in the grid, summed over passes.
    total: usize,
}

/// Resume passes over a ledger that already holds the grid: every cell
/// must come from the ledger and equal `expected`, and `grid.csv` must
/// not change.
#[allow(clippy::too_many_arguments)]
fn resume_passes(
    grid: &Grid,
    dir: &Path,
    expected: &BTreeMap<(usize, usize), RunResult>,
    expected_csv: Option<&[u8]>,
    seconds: f64,
    clock: &mut HostClock,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Resume, String> {
    let cfg = runner(dir, 1, true);
    let mut resume = Resume {
        passes: Vec::new(),
        cached: 0,
        total: 0,
    };
    let started = clock.now();
    while resume.passes.len() < RESUME_MIN_REPEATS || clock.now() - started < seconds {
        clock.sample_if_due();
        let id = spans.begin("campaign.resume", None, None);
        let (out, span) = clock.time(|| run_campaign(&grid.campaign, &cfg, &NullSink));
        let out = out.map_err(|e| e.to_string())?;
        resume.passes.push(span);
        resume.cached += out.telemetry.cached_cells;
        resume.total += out.telemetry.total_cells;
        spans.end(
            id,
            vec![(
                "cached_cells".into(),
                JsonValue::u64(out.telemetry.cached_cells as u64),
            )],
        );
        tally.attempted += grid.campaign.total_cells() as u64;
        let executed = out.telemetry.executed_cells + out.failures.len();
        if executed > 0 {
            tally.failed += executed as u64;
            tally
                .notes
                .push(format!("resume pass executed {executed} cell(s)"));
        }
        let got: BTreeMap<_, _> = out
            .grid
            .iter()
            .map(|g| ((g.spec_index, g.workload_index), &g.result))
            .collect();
        for (cell, want) in expected {
            if got.get(cell) != Some(&want) {
                tally.fail(format!(
                    "{}: resumed result differs from the cold run",
                    grid.cell_key(cell.0, cell.1)
                ));
            }
        }
        if let Some(want) = expected_csv {
            let csv = std::fs::read(&out.grid_csv).map_err(|e| format!("read grid.csv: {e}"))?;
            if csv != want {
                tally.fail("resumed grid.csv differs from the cold run".into());
            }
        }
    }
    clock.sample();
    Ok(resume)
}

/// Fills a fresh ledger with `results` through the harness's writer.
fn seed_ledger(
    grid: &Grid,
    dir: &Path,
    results: &BTreeMap<(usize, usize), RunResult>,
) -> Result<(), String> {
    let path = dir.join("ledger.jsonl");
    let writer = LedgerWriter::append_to(&path).map_err(|e| format!("open ledger: {e}"))?;
    for (&(s, w), r) in results {
        writer
            .append(grid.campaign.cell_digest(s, w), r)
            .map_err(|e| format!("append ledger: {e}"))?;
    }
    Ok(())
}

/// A progress sink that samples the host clock on the campaign's worker
/// thread between cells, as the serial passes do between theirs, and
/// records when each cell ran. The harness calls it after a cell's wall
/// time is taken, so the samples add to the pass but not to any cell.
struct SamplingSink<'a> {
    state: Mutex<SinkState<'a>>,
}

struct SinkState<'a> {
    clock: &'a mut HostClock,
    /// When each cell ran, on the host clock.
    cells: Vec<Span>,
    /// Time spent sampling inside the pass.
    sampling_s: f64,
}

impl ProgressSink for SamplingSink<'_> {
    fn cell_finished(&self, timing: &CellTiming, _done: usize, _total: usize) {
        let mut st = self.state.lock().expect("the sink never panics");
        let end = st.clock.now();
        st.cells.push(Span {
            start: end - timing.wall.as_secs_f64(),
            end,
        });
        let before = st.clock.samples();
        st.clock.sample_if_due();
        if st.clock.samples() > before {
            st.sampling_s += st.clock.now() - end;
        }
    }
}

/// A cold campaign pass, timed.
struct Cold {
    /// The pass's wall time less its sampling, scaled to the reference
    /// host.
    scaled_s: f64,
    /// Each cell's wall time, scaled.
    cells_s: Vec<f64>,
    /// Time spent sampling inside the pass.
    sampling_s: f64,
    out: CampaignOutcome,
}

/// One cold campaign pass at `SWEEP_THREADS` workers into a fresh
/// results directory, sampling the host clock between its cells. Every
/// cell must succeed and equal the direct (serial, probed) run of the
/// same cell.
fn cold_pass(
    grid: &Grid,
    dir: &Path,
    direct: &BTreeMap<(usize, usize), RunResult>,
    clock: &mut HostClock,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Cold, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = runner(dir, SWEEP_THREADS, false);
    clock.sample();
    let id = spans.begin("campaign.cold", None, None);
    let start = clock.now();
    let sink = SamplingSink {
        state: Mutex::new(SinkState {
            clock,
            cells: Vec::new(),
            sampling_s: 0.0,
        }),
    };
    let out = run_campaign(&grid.campaign, &cfg, &sink);
    let SinkState {
        clock,
        cells,
        sampling_s,
    } = sink.state.into_inner().expect("the sink never panics");
    let span = Span {
        start,
        end: clock.now(),
    };
    clock.sample();
    let out = out.map_err(|e| e.to_string())?;
    spans.end(
        id,
        vec![(
            "executed_cells".into(),
            JsonValue::u64(out.telemetry.executed_cells as u64),
        )],
    );
    tally.attempted += grid.campaign.total_cells() as u64;
    for f in &out.failures {
        tally.fail(format!(
            "{}: {}",
            grid.cell_key(f.spec_index, f.workload_index),
            f.error
        ));
    }
    for g in &out.grid {
        let cell = (g.spec_index, g.workload_index);
        if direct.get(&cell) != Some(&g.result) {
            tally.fail(format!(
                "{}: campaign result differs from the direct run",
                grid.cell_key(cell.0, cell.1)
            ));
        }
    }
    Ok(Cold {
        scaled_s: (span.secs() - sampling_s) * clock.factor(span),
        cells_s: cells.iter().map(|&c| clock.scaled(c)).collect(),
        sampling_s,
        out,
    })
}

/// Runs `opts.workload` and returns its report: end-to-end metrics, or
/// per-layer metrics when `opts.trace` is set.
///
/// # Errors
///
/// Infrastructure failures (unwritable work directory, a harness
/// error); cell failures are counted in the report instead.
pub fn run(opts: &Options, expect: &Expect) -> Result<Outcome, String> {
    run_with(opts, expect, &|_| {})
}

/// [`run`] on a grid changed by `adjust` after it is built — how the
/// tests inject a faulty cell.
///
/// # Errors
///
/// As [`run`].
pub fn run_with(
    opts: &Options,
    expect: &Expect,
    adjust: &dyn Fn(&mut Grid),
) -> Result<Outcome, String> {
    let dir = ScratchDir::fresh(opts.work_dir.join(format!(
        "{}-{}",
        opts.workload.name(),
        std::process::id()
    )))?;
    let mut clock = HostClock::new();
    clock.sample();
    let setup = Setup::new(opts, adjust, &clock);
    let run = Run {
        opts,
        adjust,
        expect,
        dir: &dir.0,
        setup,
        clock,
        spans: Spans::new(),
        tally: Tally::default(),
        probe: WindowProbe::new(),
        first: None,
        results: BTreeMap::new(),
    };
    if opts.trace {
        run.traced()
    } else {
        run.timed()
    }
}

/// The state one run threads through its rounds.
struct Run<'a> {
    opts: &'a Options,
    adjust: &'a dyn Fn(&mut Grid),
    expect: &'a Expect,
    dir: &'a Path,
    setup: Setup,
    clock: HostClock,
    spans: Spans,
    tally: Tally,
    probe: WindowProbe,
    /// The first pass's digests.
    first: Option<Digests>,
    /// The first pass's results.
    results: BTreeMap<(usize, usize), RunResult>,
}

impl Run<'_> {
    /// Sets up afresh (`SETUPS_PER_ROUND` times) unless this is the
    /// first pass, whose set-up the run just did, then runs and checks
    /// one serial pass.
    fn pass(&mut self, kind: PassKind, parent: Option<SpanId>) -> Pass {
        if self.first.is_some() {
            for _ in 0..SETUPS_PER_ROUND {
                self.setup.redo(self.opts, self.adjust, &self.clock);
            }
        }
        let pass = serial_pass(
            &self.setup,
            kind,
            &self.probe,
            &mut self.clock,
            &mut self.spans,
            parent,
        );
        let expect = match self.expect {
            Expect::Reference(d) => Some(d),
            Expect::FirstPass => self.first.as_ref(),
        };
        let digests = check_pass(&self.setup, &pass, expect, &mut self.tally);
        if self.first.is_none() {
            self.first = Some(digests);
            self.results = results_of(&pass.cells);
        }
        pass
    }

    fn resume(&mut self, csv: Option<&[u8]>, seconds: f64) -> Result<Resume, String> {
        resume_passes(
            &self.setup.grid,
            self.dir,
            &self.results,
            csv,
            seconds,
            &mut self.clock,
            &mut self.spans,
            &mut self.tally,
        )
    }

    fn cold(&mut self) -> Result<Cold, String> {
        cold_pass(
            &self.setup.grid,
            self.dir,
            &self.results,
            &mut self.clock,
            &mut self.spans,
            &mut self.tally,
        )
    }

    /// Median over the set-ups of their time scaled to the reference
    /// host, with the sample count.
    fn setup_s(&self, spans: &[Span]) -> Result<(f64, usize), String> {
        let v: Vec<f64> = spans.iter().map(|&s| self.clock.scaled(s)).collect();
        Ok((median(&v).ok_or("no set-up")?, v.len()))
    }

    fn finish(self, report: Report, first_note: String) -> Outcome {
        let mut notes = self.tally.notes;
        notes.insert(0, first_note);
        if let Some((mid, lo, hi)) = self.clock.factor_summary() {
            notes.insert(
                1,
                format!(
                    "host speed vs the reference host: median {mid:.3}, range {lo:.3}-{hi:.3} over {} calibration samples",
                    self.clock.samples()
                ),
            );
        }
        Outcome {
            report,
            digests: self.first.unwrap_or_default(),
            notes,
        }
    }
}

/// Every pass of one kind, per cell: the spans and probe windows of each
/// pass. They are scaled to the reference host when the run ends, once
/// the clock samples after the last pass exist, and reported as medians
/// over the passes: the rounds are repeat measurements of the same
/// deterministic work.
#[derive(Debug, Default)]
struct Rounds {
    /// Per cell, when each pass ran it.
    spans: Vec<Vec<Span>>,
    /// Per cell and pass, the raw host ns per access of each window.
    windows: Vec<Vec<Vec<f32>>>,
    /// Per cell, accesses served (identical in every pass).
    served: Vec<u64>,
    passes: usize,
}

impl Rounds {
    fn add(&mut self, pass: Pass) {
        if self.passes == 0 {
            self.served = pass.cells.iter().map(|c| c.served).collect();
            self.spans = vec![Vec::new(); pass.cells.len()];
            self.windows = vec![Vec::new(); pass.cells.len()];
        }
        for (i, c) in pass.cells.into_iter().enumerate() {
            self.spans[i].push(c.span);
            self.windows[i].push(c.windows.iter().map(|&w| w as f32).collect());
        }
        self.passes += 1;
    }

    fn served(&self) -> u64 {
        self.served.iter().sum()
    }

    /// Per cell, the median over passes of its scaled wall time.
    fn cell_s(&self, clock: &HostClock) -> Vec<f64> {
        self.spans
            .iter()
            .filter_map(|s| median(&s.iter().map(|&p| clock.scaled(p)).collect::<Vec<_>>()))
            .collect()
    }

    /// Every execution of every cell, scaled.
    fn executions(&self, clock: &HostClock) -> Vec<f64> {
        self.spans
            .iter()
            .flatten()
            .map(|&s| clock.scaled(s))
            .collect()
    }

    /// Per cell and window, the median over passes of its scaled ns per
    /// access.
    fn windows(&self, clock: &HostClock) -> Vec<f64> {
        let mut out = Vec::new();
        for (spans, passes) in self.spans.iter().zip(&self.windows) {
            let factors: Vec<f64> = spans.iter().map(|&s| clock.factor(s)).collect();
            let longest = passes.iter().map(Vec::len).max().unwrap_or(0);
            for k in 0..longest {
                let v: Vec<f64> = passes
                    .iter()
                    .zip(&factors)
                    .filter_map(|(p, f)| p.get(k).map(|&w| w as f64 * f))
                    .collect();
                out.extend(median(&v));
            }
        }
        out
    }
}

/// Whether another round fits in the measurement time: rounds repeat
/// while the longest one so far would still end within `seconds`, so a
/// run lasts about `seconds` whatever its round length.
fn another_round(started: Instant, longest: f64, seconds: f64) -> bool {
    started.elapsed().as_secs_f64() + longest <= seconds
}

/// Median of `v` scaled to the reference host, or an error naming what
/// was never measured.
fn scaled_median(clock: &HostClock, v: &[Span], what: &str) -> Result<f64, String> {
    median(&v.iter().map(|&s| clock.scaled(s)).collect::<Vec<_>>())
        .ok_or_else(|| format!("no {what}"))
}

impl Run<'_> {
    /// The untraced run: every end-to-end metric. Each round sets up
    /// afresh and runs a serial, probed pass over the grid (checked, and
    /// timed per cell and per probe window), for the sweep a cold
    /// campaign pass, and resume passes over a ledger holding the grid
    /// (for the serial workloads, written from the first round's
    /// results).
    fn timed(mut self) -> Result<Outcome, String> {
        let sweep = self.opts.workload == Workload::Sweep;
        let started = Instant::now();
        let mut rounds = Rounds::default();
        let mut cold_passes = Vec::new();
        let mut cold_cells = Vec::new();
        let mut resume_passes = Vec::new();
        let mut longest: f64 = 0.0;
        while rounds.passes == 0 || another_round(started, longest, self.opts.seconds) {
            let round = Instant::now();
            let fresh = self.first.is_none();
            let pass = self.pass(PassKind::Probed, None);
            if fresh && !sweep {
                seed_ledger(&self.setup.grid, self.dir, &self.results)?;
            }
            rounds.add(pass);
            let csv = if sweep {
                let cold = self.cold()?;
                cold_passes.push(cold.scaled_s);
                cold_cells.extend(cold.cells_s);
                Some(std::fs::read(&cold.out.grid_csv).map_err(|e| format!("read grid.csv: {e}"))?)
            } else {
                None
            };
            let resume = self.resume(csv.as_deref(), ROUND_RESUME_SECONDS)?;
            resume_passes.extend(resume.passes);
            longest = longest.max(round.elapsed().as_secs_f64());
        }
        let clock = &self.clock;
        let grid = &self.setup.grid;
        let windows = rounds.windows(clock);
        // Cell times pool every execution of every cell, so even the
        // twelve cells of llc-bound give a true tail.
        let (rate, cell_s) = if sweep {
            (
                rounds.served() as f64 / median(&cold_passes).ok_or("no cold pass")?,
                cold_cells,
            )
        } else {
            (
                rounds.served() as f64 / rounds.cell_s(clock).iter().sum::<f64>(),
                rounds.executions(clock),
            )
        };
        let (speedup, pairs) = ziv_speedup(grid, &self.results);
        let (setup_s, setups) = self.setup_s(&self.setup.setup)?;

        let mut report = Report {
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            ..Report::default()
        };
        report.push("sim_accesses_per_s", rate, "1/s", rounds.passes)?;
        report.push(
            "access_ns_p50",
            median(&windows).ok_or("no probe windows")?,
            "ns",
            windows.len(),
        )?;
        report.push_tail("access_ns_p99", tail(&windows, 99.0), "ns")?;
        report.push(
            "cell_s_p50",
            median(&cell_s).ok_or("no cells")?,
            "s",
            cell_s.len(),
        )?;
        report.push_tail("cell_s_p90", tail(&cell_s, 90.0), "s")?;
        report.push(
            "resume_cells_per_s",
            grid.campaign.total_cells() as f64
                / scaled_median(clock, &resume_passes, "resume pass")?,
            "1/s",
            resume_passes.len(),
        )?;
        report.push("setup_s", setup_s, "s", setups)?;
        report.push("peak_rss_mb", peak_rss_mb()?, "MB", 1)?;
        report.push("ziv_weighted_speedup", speedup, "x", pairs)?;
        let note = format!(
            "{} round(s) in {:.1} s; {} cell executions, {} probe windows; timings scaled to the reference host",
            rounds.passes,
            started.elapsed().as_secs_f64(),
            cell_s.len(),
            windows.len()
        );
        Ok(self.finish(report, note))
    }
}

/// Sums of a traced pass's self-profiler and latency observatory.
#[derive(Debug, Default)]
struct LayerSums {
    nanos: [u64; 4],
    calls: [u64; 4],
    latency_total: u64,
    latency_dram: u64,
    latency_noc: u64,
}

const SECTIONS: [ProfileSection; 4] = [
    ProfileSection::Hierarchy,
    ProfileSection::Replacement,
    ProfileSection::Directory,
    ProfileSection::Dram,
];

impl LayerSums {
    fn add(&mut self, obs: &ziv_sim::Observations) {
        if let Some(p) = &obs.profile {
            for (i, s) in SECTIONS.iter().enumerate() {
                self.nanos[i] += p.nanos(*s);
                self.calls[i] += p.calls(*s);
            }
        }
        if let Some(l) = &obs.latency {
            self.latency_total += l.total_cycles();
            self.latency_dram += l.component_total(LatencyComponent::Dram);
            self.latency_noc += l.component_total(LatencyComponent::Noc);
        }
    }

    fn secs(&self, i: usize) -> f64 {
        self.nanos[i] as f64 / 1e9
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Run<'_> {
    /// The traced run: probed, traced and unprobed serial passes in turn
    /// (at least one each), then the harness pass, then every per-layer
    /// metric. Spans are written to `<work_dir>/trace-<workload>.json`.
    fn traced(mut self) -> Result<Outcome, String> {
        let started = Instant::now();
        let order = [PassKind::Probed, PassKind::Traced, PassKind::Unprobed];
        let mut rounds: [Rounds; 3] = Default::default();
        // Per-layer sums over the traced passes.
        let mut sums = LayerSums::default();
        let (mut run_s, mut new_s) = (0.0, 0.0);
        let mut i = 0;
        let mut longest: f64 = 0.0;
        while i < order.len() || another_round(started, longest, self.opts.seconds) {
            let round = Instant::now();
            let kind = order[i % order.len()];
            let name = match kind {
                PassKind::Probed => "pass.probed",
                PassKind::Traced => "pass.traced",
                PassKind::Unprobed => "pass.unprobed",
            };
            let id = self.spans.begin(name, None, None);
            let pass = self.pass(kind, Some(id));
            self.spans.end(id, Vec::new());
            if kind == PassKind::Traced {
                new_s += pass.hierarchy_new_s;
                for c in &pass.cells {
                    run_s += c.span.secs();
                    if let Some(obs) = &c.observations {
                        sums.add(obs);
                    }
                }
            }
            rounds[i % order.len()].add(pass);
            i += 1;
            longest = longest.max(round.elapsed().as_secs_f64());
        }
        let [probed, traced, unprobed] = &rounds;

        // The harness layer: a cold campaign for the sweep; for the serial
        // workloads, the ledger resume of their grid.
        let (harness, resume) = if self.opts.workload == Workload::Sweep {
            let cold = self.cold()?;
            let csv =
                std::fs::read(&cold.out.grid_csv).map_err(|e| format!("read grid.csv: {e}"))?;
            let resume = self.resume(Some(&csv), RESUME_SECONDS)?;
            (Some((cold.out.telemetry, cold.sampling_s)), resume)
        } else {
            seed_ledger(&self.setup.grid, self.dir, &self.results)?;
            (None, self.resume(None, RESUME_SECONDS)?)
        };
        let grid = &self.setup.grid;
        let results = &self.results;
        let resume_s = resume
            .passes
            .iter()
            .map(Span::secs)
            .reduce(f64::min)
            .ok_or("no resume pass")?;
        // The host-speed sampling inside the cold pass is the
        // benchmark's, not the harness's: it leaves the pass's wall time.
        let (h_wall, h_busy, h_workers) = match &harness {
            Some((t, sampling_s)) => (
                t.wall.as_secs_f64() - sampling_s,
                t.busy.as_secs_f64(),
                t.workers,
            ),
            None => (resume_s, 0.0, 0),
        };
        let h_util = ratio(h_busy, h_wall * h_workers as f64).min(1.0);

        let nt = traced.passes as f64;
        let per = |x: f64| x / nt;
        let served = sums.calls[0] as f64 / nt;
        let nominal: u64 = grid
            .campaign
            .cells()
            .into_iter()
            .map(|(_, w)| grid.nominal_accesses(w))
            .sum();
        let busy = |i: usize| per(sums.secs(i));
        let m = results
            .values()
            .fold(ziv_core::Metrics::new(0), |mut acc, r| {
                let x = &r.metrics;
                acc.llc_accesses += x.llc_accesses;
                acc.llc_hits += x.llc_hits;
                acc.relocations += x.relocations;
                acc.in_set_alternate_victims += x.in_set_alternate_victims;
                acc.inclusion_victims += x.inclusion_victims;
                acc.directory_back_invalidations += x.directory_back_invalidations;
                acc.dram_accesses += x.dram_accesses;
                acc.per_core.extend(x.per_core.iter().copied());
                acc
            });
        let private_accesses: u64 = m.per_core.iter().map(|c| c.accesses).sum();
        let l2_misses: u64 = m.total_l2_misses();

        // Probe cost: per cell, the probed wall over the unprobed wall,
        // each the median pass scaled to the reference host, so host drift
        // between the passes cancels.
        let probed_s = probed.cell_s(&self.clock);
        let probe_ratios: Vec<f64> = probed_s
            .iter()
            .zip(&unprobed.cell_s(&self.clock))
            .map(|(p, u)| ratio(*p, *u))
            .collect();
        let probe_overhead = (median(&probe_ratios).unwrap_or(1.0) - 1.0) * 100.0;
        let probe_noise = quartile_spread(&probe_ratios).unwrap_or(0.0) * 100.0;
        let trace_overhead = (ratio(
            traced.cell_s(&self.clock).iter().sum(),
            probed_s.iter().sum(),
        ) - 1.0)
            * 100.0;

        let n = grid.campaign.total_cells();
        let mut r = Report {
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            ..Report::default()
        };
        let builds: Vec<f64> = self.setup.build.iter().map(Span::secs).collect();
        r.push(
            "workloads.build_s",
            median(&builds).ok_or("no set-up")?,
            "s",
            builds.len(),
        )?;
        r.push("workloads.accesses_nominal", nominal as f64, "count", n)?;
        r.push("driver.run_s", per(run_s), "s", n)?;
        r.push("driver.self_s", per(run_s) - busy(0), "s", n)?;
        r.push("driver.accesses_served", served, "count", n)?;
        r.push(
            "driver.useful_ratio",
            ratio(nominal as f64, served),
            "ratio",
            n,
        )?;
        r.push("hierarchy.new_s", per(new_s), "s", n)?;
        r.push("hierarchy.busy_s", busy(0), "s", n)?;
        r.push(
            "hierarchy.self_s",
            busy(0) - busy(1) - busy(2) - busy(3),
            "s",
            n,
        )?;
        r.push(
            "hierarchy.ns_per_access",
            ratio(busy(0) * 1e9, served),
            "ns",
            n,
        )?;
        r.push(
            "private.hit_ratio",
            1.0 - ratio(l2_misses as f64, private_accesses as f64),
            "ratio",
            n,
        )?;
        r.push("llc.accesses", m.llc_accesses as f64, "count", n)?;
        r.push(
            "llc.hit_ratio",
            ratio(m.llc_hits as f64, m.llc_accesses as f64),
            "ratio",
            n,
        )?;
        r.push("llc.relocations", m.relocations as f64, "count", n)?;
        r.push(
            "llc.in_set_alternates",
            m.in_set_alternate_victims as f64,
            "count",
            n,
        )?;
        r.push(
            "llc.inclusion_victims",
            m.inclusion_victims as f64,
            "count",
            n,
        )?;
        r.push("replacement.busy_s", busy(1), "s", n)?;
        r.push("replacement.calls", per(sums.calls[1] as f64), "count", n)?;
        r.push(
            "replacement.ns_per_call",
            ratio(busy(1) * 1e9, per(sums.calls[1] as f64)),
            "ns",
            n,
        )?;
        r.push("directory.busy_s", busy(2), "s", n)?;
        r.push("directory.calls", per(sums.calls[2] as f64), "count", n)?;
        r.push(
            "directory.back_invalidations",
            m.directory_back_invalidations as f64,
            "count",
            n,
        )?;
        r.push("dram.busy_s", busy(3), "s", n)?;
        r.push("dram.accesses", m.dram_accesses as f64, "count", n)?;
        r.push(
            "dram.cycle_share",
            ratio(sums.latency_dram as f64, sums.latency_total as f64),
            "ratio",
            n,
        )?;
        r.push(
            "noc.cycle_share",
            ratio(sums.latency_noc as f64, sums.latency_total as f64),
            "ratio",
            n,
        )?;
        r.push("harness.wall_s", h_wall, "s", 1)?;
        r.push("harness.busy_s", h_busy, "s", 1)?;
        r.push("harness.utilization", h_util, "ratio", 1)?;
        r.push(
            "harness.overhead_s",
            h_wall - h_busy / h_workers.max(1) as f64,
            "s",
            1,
        )?;
        let cached = ratio(resume.cached as f64, resume.total as f64);
        r.push(
            "harness.cache_hit_ratio",
            cached,
            "ratio",
            resume.passes.len(),
        )?;
        r.push("harness.resume_s", resume_s, "s", resume.passes.len())?;
        r.push("trace.overhead_pct", trace_overhead, "%", i)?;
        r.push(
            "probe.overhead_pct",
            probe_overhead,
            "%",
            probe_ratios.len(),
        )?;
        r.push("probe.noise_pct", probe_noise, "%", probe_ratios.len())?;

        let trace_path = self
            .opts
            .work_dir
            .join(format!("trace-{}.json", self.opts.workload.name()));
        std::fs::write(&trace_path, self.spans.to_chrome_json().to_string())
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        let note = format!(
        "{i} pass(es); probe cost {probe_overhead:+.2}% vs noise {probe_noise:.2}% ({}); spans in {}",
        if probe_overhead.abs() <= probe_noise { "within noise" } else { "beyond noise" },
        trace_path.display()
    );
        Ok(self.finish(r, note))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_benchmark_observes_and_never_steers() {
        for w in Workload::ALL {
            let opts = Options {
                workload: w,
                seed: 7,
                seconds: 0.0,
                trace: false,
                size: Size::Tiny,
                work_dir: PathBuf::new(),
            };
            let mut clock = HostClock::new();
            let setup = Setup::new(&opts, &|_| {}, &clock);
            let probe = WindowProbe::new();
            let mut spans = Spans::new();
            for kind in [PassKind::Probed, PassKind::Traced, PassKind::Unprobed] {
                let pass = serial_pass(&setup, kind, &probe, &mut clock, &mut spans, None);
                for c in &pass.cells {
                    let spec = &setup.grid.campaign.specs[c.spec];
                    let plain = ziv_sim::run_one(spec, &setup.traces[c.recipe]);
                    assert_eq!(c.result.as_ref(), Ok(&plain), "{} {kind:?}", w.name());
                }
            }
        }
    }

    #[test]
    fn probe_counts_served_accesses_to_within_a_window() {
        let opts = Options {
            workload: Workload::PrivateBound,
            seed: 7,
            seconds: 0.0,
            trace: true,
            size: Size::Tiny,
            work_dir: PathBuf::new(),
        };
        let mut clock = HostClock::new();
        let setup = Setup::new(&opts, &|_| {}, &clock);
        let probe = WindowProbe::new();
        let pass = serial_pass(
            &setup,
            PassKind::Traced,
            &probe,
            &mut clock,
            &mut Spans::new(),
            None,
        );
        for c in &pass.cells {
            let exact = c
                .observations
                .as_ref()
                .and_then(|o| o.profile)
                .expect("profiled");
            let exact = exact.calls(ProfileSection::Hierarchy);
            assert!(
                c.served <= exact && exact - c.served <= 256,
                "{} vs {exact}",
                c.served
            );
        }
        assert!(pass.cells.iter().all(|c| !c.windows.is_empty()));
    }
}
