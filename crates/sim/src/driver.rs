//! The per-run simulation driver.
//!
//! Cores advance in smallest-cycle-first order (deterministic global
//! interleaving); each access charges `(1 + gap) × base_cpi` for the
//! non-memory work plus the *exposed* fraction of its memory latency,
//! where the workload's `overlap` factor models the latency hiding an
//! out-of-order core with MLP achieves (DESIGN.md §5.1).

use crate::spec::RunSpec;
use ziv_common::SimError;
use ziv_core::observe::{
    EpochSlicer, FlightRecorder, Observations, ObserveConfig, ProbeSnapshot, TelemetryProbe,
};
use ziv_core::profile::{ProfileSection, SelfProfiler};
use ziv_core::{Access, AuditCadence, Auditor, CacheHierarchy, CancelToken, Metrics};
use ziv_workloads::Workload;

/// Per-cell cycle budget for the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellBudget {
    /// Explicit per-core cycle cap (`--cell-budget`).
    Cycles(u64),
    /// Generous cap derived from the workload size (see
    /// [`derived_budget`]): orders of magnitude above any healthy run,
    /// tripped only by a livelocked or stalled model.
    Derived,
}

impl CellBudget {
    /// Resolves the budget, in per-core cycles, for `workload`.
    pub fn cycles_for(&self, workload: &Workload) -> u64 {
        match self {
            CellBudget::Cycles(c) => *c,
            CellBudget::Derived => derived_budget(workload),
        }
    }
}

/// The derived watchdog budget: every access can lap the trace
/// [`32`-fold under the issue cap] and still spend thousands of cycles
/// without coming near this, so only a genuinely stuck model trips it.
pub fn derived_budget(workload: &Workload) -> u64 {
    workload
        .total_accesses()
        .saturating_mul(50_000)
        .max(10_000_000)
}

/// Robustness and observability options for a run: audit cadence,
/// watchdog budget, and the flight-recorder configuration. The default
/// (`audit off`, no budget, observe nothing) makes [`run_one_checked`]
/// behave exactly like [`run_one`]. Sampled runs take their
/// [`SamplingPlan`](crate::SamplingPlan) as a separate argument and
/// honour `audit` and `budget` but not `observe`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// How often the auditor walks the hierarchy.
    pub audit: AuditCadence,
    /// Watchdog budget; `None` disables the watchdog.
    pub budget: Option<CellBudget>,
    /// What to observe (epoch slicing, event tracing, heatmaps).
    /// Never digested and never serialized into result ledgers:
    /// observing a run must not change its outcome.
    pub observe: ObserveConfig,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            audit: AuditCadence::Off,
            budget: None,
            observe: ObserveConfig::disabled(),
        }
    }
}

/// Per-core results of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreRunStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles consumed.
    pub cycles: u64,
    /// Application driving the core.
    pub app_name: &'static str,
}

impl CoreRunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.checked_ipc().unwrap_or(0.0)
    }

    /// Instructions per cycle, or `None` when the core recorded no
    /// cycles (a degenerate run that must not be used as a speedup
    /// denominator — dividing by a 0 IPC yields `inf`/`NaN` that
    /// silently poisons downstream geomeans).
    pub fn checked_ipc(&self) -> Option<f64> {
        if self.cycles == 0 {
            None
        } else {
            Some(self.instructions as f64 / self.cycles as f64)
        }
    }
}

/// Results of simulating one workload under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Configuration label (e.g. `"I-LRU"`, `"ZIV-LikelyDead"`).
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Per-core statistics.
    pub cores: Vec<CoreRunStats>,
    /// Hierarchy statistics.
    pub metrics: Metrics,
}

impl RunResult {
    /// Total instructions across cores.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Weighted speedup relative to a baseline run of the same workload:
    /// `(1/n) Σ_i IPC_i / IPC_i^base` — the standard multiprogrammed
    /// performance metric behind the paper's speedup figures.
    ///
    /// Cores whose *baseline* IPC is zero (a zero-cycle or zero-
    /// instruction baseline core) carry no speedup information and are
    /// excluded from the average rather than contributing `inf`/`NaN`;
    /// if every core is excluded the neutral speedup 1.0 is returned.
    ///
    /// # Panics
    ///
    /// Panics if the runs have different core counts.
    pub fn weighted_speedup(&self, baseline: &RunResult) -> f64 {
        assert_eq!(
            self.cores.len(),
            baseline.cores.len(),
            "core count mismatch"
        );
        let mut sum = 0.0;
        let mut n = 0usize;
        for (a, b) in self.cores.iter().zip(&baseline.cores) {
            if let Some(base_ipc) = b.checked_ipc().filter(|&v| v > 0.0) {
                sum += a.ipc() / base_ipc;
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }

    /// Throughput speedup for multithreaded workloads: baseline total
    /// time / this total time (all threads run the same total work).
    pub fn runtime_speedup(&self, baseline: &RunResult) -> f64 {
        let t_self = self.cores.iter().map(|c| c.cycles).max().unwrap_or(1) as f64;
        let t_base = baseline.cores.iter().map(|c| c.cycles).max().unwrap_or(1) as f64;
        t_base / t_self
    }
}

/// Simulates `workload` under `spec` and returns the results.
///
/// # Panics
///
/// Panics if the workload's core count exceeds the system's.
pub fn run_one(spec: &RunSpec, workload: &Workload) -> RunResult {
    run_one_checked(spec, workload, &RunOptions::default())
        .expect("a run with auditing and watchdog disabled is infallible")
}

/// Simulates `workload` under `spec` with runtime invariant auditing and
/// an optional watchdog budget; audit violations and budget trips
/// propagate as [`SimError`] values instead of panics.
///
/// # Errors
///
/// - [`SimError::Audit`] when an audit walk (at `opts.audit` cadence)
///   finds an invariant violation — carrying the violation kind and the
///   0-based index of the access after which it was first observed.
/// - [`SimError::BudgetExceeded`] when any core's cycle clock crosses
///   the watchdog budget before its trace completes.
///
/// # Panics
///
/// Panics if the workload's core count exceeds the system's.
pub fn run_one_checked(
    spec: &RunSpec,
    workload: &Workload,
    opts: &RunOptions,
) -> Result<RunResult, SimError> {
    run_one_traced(spec, workload, opts).0
}

/// The per-cell simulation engine both drivers share: the hierarchy
/// with its recorder, profiler and epoch slicer attached, the per-core
/// trace cursors and clocks, and the checks that follow every access.
///
/// The full driver ([`run_one_instrumented`]) and the sampled driver
/// ([`run_one_sampled_instrumented`](crate::run_one_sampled_instrumented))
/// differ only in which core may issue next, which stream position each
/// access carries, and what they do between accesses; everything that
/// touches the hierarchy goes through [`Engine::issue`].
pub(crate) struct Engine<'a> {
    pub(crate) h: CacheHierarchy,
    workload: &'a Workload,
    pub(crate) base_cpi: f64,
    /// Next record index per core.
    pub(crate) cursor: Vec<usize>,
    /// Per-core cycle clocks.
    pub(crate) cycles: Vec<f64>,
    /// Per-core retired instructions.
    pub(crate) instructions: Vec<u64>,
    /// Accesses issued so far, over the global stream.
    pub(crate) issued: u64,
    auditor: Auditor,
    budget_cycles: Option<u64>,
    observing: bool,
    profiling: bool,
    slicer: Option<EpochSlicer>,
    cancel: Option<&'a CancelToken>,
    probe: Option<&'a dyn TelemetryProbe>,
}

impl<'a> Engine<'a> {
    /// Builds the hierarchy for `workload` under `spec` and attaches
    /// whatever `opts.observe` asks for.
    ///
    /// # Panics
    ///
    /// Panics if the workload's core count exceeds the system's.
    pub(crate) fn new(
        spec: &RunSpec,
        workload: &'a Workload,
        opts: &RunOptions,
        cancel: Option<&'a CancelToken>,
        probe: Option<&'a dyn TelemetryProbe>,
    ) -> Self {
        let mut h = CacheHierarchy::new(&spec.build_hierarchy_config(workload));
        let ncores = workload.cores();
        assert!(
            ncores <= spec.system.cores,
            "workload has {ncores} cores but the system has {}",
            spec.system.cores
        );
        if let Some(mut rec) = FlightRecorder::new(
            &opts.observe,
            ncores,
            spec.system.llc.banks,
            spec.system.llc.bank_geometry.sets as usize,
        ) {
            // The leakage observatory needs the workload's attack roles,
            // so the engine (not the recorder constructor) attaches it.
            if opts.observe.leakage {
                if let Some(plan) = workload.attack.as_ref() {
                    rec.attach_leakage(ziv_core::LeakageObservatory::new(
                        ncores,
                        spec.system.llc.banks,
                        spec.system.llc.bank_geometry.sets as usize,
                        &plan.attacker_cores,
                        &plan.victim_cores,
                        &plan.probe_lines,
                    ));
                }
            }
            h.attach_recorder(rec);
        }
        let profiling = opts.observe.profile;
        if profiling {
            h.attach_profiler(Box::new(SelfProfiler::new()));
        }
        Engine {
            h,
            workload,
            base_cpi: spec.system.base_cpi,
            cursor: vec![0; ncores],
            cycles: vec![0.0; ncores],
            instructions: vec![0; ncores],
            issued: 0,
            auditor: Auditor::new(opts.audit),
            budget_cycles: opts.budget.map(|b| b.cycles_for(workload)),
            observing: opts.observe.is_enabled(),
            profiling,
            slicer: opts.observe.epoch.map(|n| EpochSlicer::new(n, ncores)),
            cancel,
            probe,
        }
    }

    /// Polls the cancel token and, every 256 accesses, reports progress
    /// to it and publishes a probe snapshot tagged with `stratum` (0 for
    /// full runs; the sampling phase code otherwise). Without a token
    /// or a probe each site is a single never-taken branch, so
    /// unsupervised, unwatched runs stay byte-identical.
    #[inline(always)]
    pub(crate) fn poll(&self, stratum: u64) -> Result<(), SimError> {
        if let Some(tok) = self.cancel {
            if let Some(reason) = tok.fired(self.issued) {
                return Err(SimError::Timeout {
                    reason,
                    access_index: self.issued,
                });
            }
            // Fine-grained enough (256 accesses) that a supervisor's
            // stall detector can tell a slow cell from a wedged one
            // even in unoptimized builds.
            if self.issued & 0xFF == 0 {
                tok.note_progress(self.issued);
            }
        }
        if let Some(p) = self.probe {
            if self.issued & 0xFF == 0 {
                p.publish_progress(&self.probe_snapshot(stratum));
            }
        }
        Ok(())
    }

    /// Reports progress to the cancel token, if any (after a bulk
    /// fast-forward that bypassed [`Engine::poll`]).
    pub(crate) fn note_progress(&self) {
        if let Some(tok) = self.cancel {
            tok.note_progress(self.issued);
        }
    }

    /// A [`ProbeSnapshot`] of the running state — a few counter reads,
    /// no allocation.
    fn probe_snapshot(&self, stratum: u64) -> ProbeSnapshot {
        let m = self.h.metrics();
        ProbeSnapshot {
            access_index: self.issued,
            instructions: self.instructions.iter().sum(),
            cycles: self.window(),
            llc_accesses: m.llc_accesses,
            llc_misses: m.llc_misses,
            inclusion_victims: m.inclusion_victims,
            relocations: m.relocations,
            stratum,
        }
    }

    /// The co-run window so far: the slowest core's clock.
    pub(crate) fn window(&self) -> u64 {
        self.cycles.iter().copied().fold(0f64, f64::max) as u64
    }

    /// The lagging core — smallest cycle clock, lowest index on ties —
    /// among the cores `eligible` admits; `None` when it admits none.
    /// Smallest-cycle-first issue is the deterministic global
    /// interleaving of DESIGN.md §5.1.
    #[inline(always)]
    pub(crate) fn lagging_core(&self, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let mut core = None;
        let mut best = f64::INFINITY;
        for (c, &cyc) in self.cycles.iter().enumerate() {
            if eligible(c) && cyc < best {
                best = cyc;
                core = Some(c);
            }
        }
        core
    }

    /// Issues `core`'s next trace record as global stream position
    /// `seq`, charges its cycles and instructions, and advances the
    /// core's cursor; returns whether that record ended the trace.
    ///
    /// A `checked` access is audited and budgeted (and profiled and
    /// epoch-sliced when observing); the sampled driver issues its
    /// functional-warm accesses unchecked.
    ///
    /// # Errors
    ///
    /// - [`SimError::Timeout`] when an injected hang wedged the model:
    ///   the engine parks on wall-clock time until the cancel token
    ///   fires, or fails at once when no token is attached.
    /// - [`SimError::Audit`] / [`SimError::BudgetExceeded`] from the
    ///   post-access checks.
    #[inline(always)]
    pub(crate) fn issue(&mut self, core: usize, seq: u64, checked: bool) -> Result<bool, SimError> {
        let trace = &self.workload.traces[core];
        let rec = trace.records[self.cursor[core]];
        self.cursor[core] += 1;
        let finishing = self.cursor[core] == trace.records.len();

        let a = Access {
            core: ziv_common::CoreId::new(core),
            addr: rec.addr,
            pc: rec.pc,
            is_write: rec.is_write,
            is_instr: false,
        };
        let now = self.cycles[core] as u64;
        let t0 = (self.profiling && checked).then(std::time::Instant::now);
        let lat = self.h.access(&a, now, seq);
        if let Some(t0) = t0 {
            self.h.profile_add(ProfileSection::Hierarchy, t0.elapsed());
        }
        let exposed = lat as f64 * (1.0 - trace.overlap);
        self.cycles[core] += (1 + rec.gap as u64) as f64 * self.base_cpi + exposed;
        self.instructions[core] += 1 + rec.gap as u64;

        let access_index = self.issued;
        self.issued += 1;
        if self.h.is_hung() {
            // An injected hang wedged the model mid-access: no further
            // progress is possible. Park on wall-clock time (the real
            // hang signature) until the supervisor cancels us; without
            // a supervisor, fail immediately instead of wedging the
            // caller forever.
            let reason = match self.cancel {
                Some(tok) => loop {
                    if let Some(reason) = tok.fired(self.issued) {
                        break reason;
                    }
                    tok.note_progress(self.issued);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                },
                None => "model hung (hang-core fault) with no supervisor attached".into(),
            };
            return Err(SimError::Timeout {
                reason,
                access_index,
            });
        }
        if !checked {
            return Ok(finishing);
        }
        if self.auditor.due() {
            let t0 = self.profiling.then(std::time::Instant::now);
            let verdict = Auditor::check(&self.h, access_index);
            if let Some(t0) = t0 {
                self.h.profile_add(ProfileSection::Audit, t0.elapsed());
            }
            if let Err(v) = verdict {
                self.h.record_audit_violation(&v, now);
                return Err(SimError::Audit(v));
            }
        }
        if let Some(budget) = self.budget_cycles {
            let c = self.cycles[core] as u64;
            if c > budget {
                return Err(SimError::BudgetExceeded {
                    budget_cycles: budget,
                    core,
                    cycles: c,
                    access_index,
                });
            }
        }
        if let Some(sl) = self.slicer.as_mut() {
            if sl.due(self.issued) {
                publish_core_clocks(&mut self.h, &self.instructions, &self.cycles);
                sl.slice(self.issued, self.h.metrics());
            }
        }
        Ok(finishing)
    }

    /// Ends a failed run: closes the epoch series at the failure point
    /// (so partial samples still telescope to the metrics-at-failure)
    /// and drains the observations, which failure records embed.
    pub(crate) fn fail(
        mut self,
        err: SimError,
    ) -> (Result<RunResult, SimError>, Option<Box<Observations>>) {
        if let Some(sl) = self.slicer.as_mut() {
            publish_core_clocks(&mut self.h, &self.instructions, &self.cycles);
            sl.finish(self.issued, self.h.metrics());
        }
        let obs = self.observations();
        (Err(err), obs)
    }

    /// Ends a completed run: finalizes the hierarchy, closes the epoch
    /// series, and builds the [`RunResult`] from the per-core clocks.
    /// The caller has already settled the per-core clocks and metrics
    /// it wants reported.
    pub(crate) fn finish(mut self, spec: &RunSpec) -> (RunResult, Option<Box<Observations>>) {
        self.h.finalize();
        debug_assert!(
            self.h.verify_invariants().is_ok(),
            "{:?}",
            self.h.verify_invariants()
        );
        // The closing sample is taken *after* finalize(), so the epoch
        // deltas sum exactly to the final aggregate metrics.
        if let Some(sl) = self.slicer.as_mut() {
            sl.finish(self.issued, self.h.metrics());
        }
        let observations = self.observations();
        let result = RunResult {
            label: spec.label.clone(),
            workload: self.workload.name.clone(),
            cores: (0..self.cursor.len())
                .map(|c| CoreRunStats {
                    instructions: self.instructions[c],
                    cycles: self.cycles[c] as u64,
                    app_name: self.workload.traces[c].app_name,
                })
                .collect(),
            metrics: self.h.metrics().clone(),
        };
        (result, observations)
    }

    /// Drains the slicer and the hierarchy's recorder into the run's
    /// observation payload; `None` when observability was disabled.
    /// The leakage report is stamped with the co-run window so its
    /// per-Mcycle rate is well-defined.
    fn observations(&mut self) -> Option<Box<Observations>> {
        if !self.observing {
            return None;
        }
        let window_cycles = self.window();
        let h = &mut self.h;
        let (events, events_recorded, heatmap, latency, leakage, forensics) =
            match h.take_recorder() {
                Some(rec) => rec.finish(),
                None => (Vec::new(), 0, None, None, None, None),
            };
        let leakage = leakage.map(|mut l| {
            l.cycles = window_cycles;
            l
        });
        let profile = h.take_profiler().map(|p| p.report());
        Some(Box::new(Observations {
            epochs: self
                .slicer
                .take()
                .map_or_else(Vec::new, EpochSlicer::into_samples),
            events,
            events_recorded,
            heatmap,
            latency,
            leakage,
            forensics,
            profile,
            dir_slice_occupancy: h.directory().slice_occupancies(),
        }))
    }
}

/// Publishes the driver's live per-core instruction/cycle clocks into
/// the hierarchy's metrics so an epoch sample can report per-epoch IPC.
/// Safe to do mid-run: nothing in the simulator reads these fields, and
/// the end-of-run settlement overwrites them regardless.
pub(crate) fn publish_core_clocks(h: &mut CacheHierarchy, instructions: &[u64], cycles: &[f64]) {
    let per_core = &mut h.metrics_mut().per_core;
    for c in 0..instructions.len() {
        per_core[c].instructions = instructions[c];
        per_core[c].cycles = cycles[c] as u64;
    }
}

/// [`run_one_checked`] plus the flight-recorder payload: the second
/// element carries the epoch time-series, retained events, and heatmaps
/// when `opts.observe` enables any of them — **even when the run
/// fails**, so failure records can embed the events leading up to the
/// violation. `None` when observability is disabled.
pub fn run_one_traced(
    spec: &RunSpec,
    workload: &Workload,
    opts: &RunOptions,
) -> (Result<RunResult, SimError>, Option<Box<Observations>>) {
    run_one_instrumented(spec, workload, opts, None, None)
}

/// [`run_one_traced`] under an optional cooperative [`CancelToken`] and
/// an optional live-telemetry probe.
///
/// When `cancel` is `Some`, the access loop polls the token once per
/// access (one relaxed atomic load) and publishes coarse progress; a
/// fired token stops the run with [`SimError::Timeout`] carrying the
/// cancellation reason and the access position. A hierarchy wedged by
/// [`ziv_core::FaultInjection::HangCore`] parks, burning wall-clock
/// time (not simulated cycles) until the token fires; without a token
/// the hang is converted into an immediate [`SimError::Timeout`] rather
/// than wedging the caller forever.
///
/// When `probe` is `Some`, the loop publishes a [`ProbeSnapshot`] every
/// 256 accesses (the cadence the supervisor already polls at). Probes
/// observe, never steer: results are byte-identical either way. With
/// both `None` each site is a single never-taken branch — the property
/// the differential determinism tests pin.
pub fn run_one_instrumented(
    spec: &RunSpec,
    workload: &Workload,
    opts: &RunOptions,
    cancel: Option<&CancelToken>,
    probe: Option<&dyn TelemetryProbe>,
) -> (Result<RunResult, SimError>, Option<Box<Observations>>) {
    let mut e = Engine::new(spec, workload, opts, cancel, probe);
    let ncores = workload.cores();

    // Early-finishing cores restart their trace and keep running (the
    // paper's protocol), so contention stays representative until the
    // last core completes its segment; per-core statistics are
    // snapshotted at each completed lap.
    let mut completed = vec![false; ncores];
    let mut snapshots: Vec<Option<(u64, u64, ziv_core::metrics::CoreMetrics)>> = vec![None; ncores];
    let mut done = 0usize;
    // Restarted records get fresh, never-in-the-future sequence numbers
    // so the MIN oracle treats them as never-reused.
    let mut restart_seq = workload.total_accesses() * ncores as u64;
    // Bound the restart inflation: a fast private-resident core
    // co-running with a slow streaming core could otherwise re-run its
    // trace a hundred times while the slowest finishes. A core parks
    // after LAP_CAP completed laps; parked cores keep their cache
    // presence but stop issuing, and the measured window for a fast
    // core is its LAP_CAP laps of co-run exposure.
    const LAP_CAP: u32 = 12;
    let mut laps = vec![0u32; ncores];
    let issue_cap = workload.total_accesses().saturating_mul(32); // backstop

    let outcome = (|| -> Result<(), SimError> {
        while done < ncores && e.issued < issue_cap {
            e.poll(0)?;
            // Everyone parked cannot happen before done == ncores.
            let Some(core) = e.lagging_core(|c| laps[c] < LAP_CAP) else {
                break;
            };
            // The policy-independent global stream position (round-robin
            // by record index), shared with the MIN oracle's future
            // knowledge.
            let seq = if completed[core] {
                restart_seq += 1;
                restart_seq
            } else {
                (e.cursor[core] * ncores + core) as u64
            };
            if e.issue(core, seq, true)? {
                e.cursor[core] = 0;
                laps[core] += 1;
                if !completed[core] {
                    completed[core] = true;
                    done += 1;
                }
                // Snapshot at every completed lap: the reported IPC then
                // covers (nearly) the whole co-run window, so repeated
                // inclusion-victim damage to fast cores is measured.
                snapshots[core] = Some((
                    e.instructions[core],
                    e.cycles[core] as u64,
                    e.h.metrics().per_core[core],
                ));
            }
        }
        Ok(())
    })();
    if let Err(err) = outcome {
        return e.fail(err);
    }

    // Rewind each core to its last lap snapshot; a core the issue cap
    // stopped mid-trace reports its progress so far. The epoch series'
    // closing sample follows this rewind, so its per-core deltas may
    // be negative.
    for (c, snapshot) in snapshots.into_iter().enumerate() {
        let (instr, cyc, mut per_core) = snapshot.unwrap_or_else(|| {
            (
                e.instructions[c],
                e.cycles[c] as u64,
                e.h.metrics().per_core[c],
            )
        });
        per_core.instructions = instr;
        per_core.cycles = cyc;
        e.h.metrics_mut().per_core[c] = per_core;
        e.instructions[c] = instr;
        e.cycles[c] = cyc as f64;
    }
    let (result, observations) = e.finish(spec);
    (Ok(result), observations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunSpec;
    use ziv_common::config::SystemConfig;
    use ziv_core::{LlcMode, ZivProperty};
    use ziv_workloads::{apps, mixes, ScaleParams};

    fn small_workload(cores: usize) -> Workload {
        let sys = SystemConfig::scaled();
        mixes::homogeneous(
            apps::APPS[4],
            cores,
            3_000,
            1,
            ScaleParams::from_system(&sys),
        )
    }

    #[test]
    fn run_produces_cycles_and_instructions() {
        let spec = RunSpec::new("I-LRU", SystemConfig::scaled());
        let r = run_one(&spec, &small_workload(2));
        assert_eq!(r.cores.len(), 2);
        for c in &r.cores {
            assert!(c.instructions > 3_000);
            assert!(c.cycles > 0);
            assert!(c.ipc() > 0.0);
        }
    }

    #[test]
    fn weighted_speedup_of_self_is_one() {
        let spec = RunSpec::new("I-LRU", SystemConfig::scaled());
        let r = run_one(&spec, &small_workload(2));
        assert!((r.weighted_speedup(&r) - 1.0).abs() < 1e-12);
        assert!((r.runtime_speedup(&r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = RunSpec::new("ZIV", SystemConfig::scaled())
            .with_mode(LlcMode::Ziv(ZivProperty::LikelyDead));
        let wl = small_workload(2);
        let a = run_one(&spec, &wl);
        let b = run_one(&spec, &wl);
        assert_eq!(a.metrics.llc_misses, b.metrics.llc_misses);
        assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
    }

    #[test]
    fn zero_cycle_baseline_core_does_not_poison_speedup() {
        let spec = RunSpec::new("I-LRU", SystemConfig::scaled());
        let mut base = run_one(&spec, &small_workload(2));
        let good = run_one(&spec, &small_workload(2));
        // A parked/degenerate baseline core: zero cycles, zero IPC.
        base.cores[1].cycles = 0;
        base.cores[1].instructions = 0;
        assert_eq!(base.cores[1].checked_ipc(), None);
        let s = good.weighted_speedup(&base);
        assert!(s.is_finite(), "speedup must stay finite, got {s}");
        assert!(s > 0.0);
        // All-degenerate baseline: neutral speedup, still finite.
        base.cores[0].cycles = 0;
        assert_eq!(good.weighted_speedup(&base), 1.0);
    }

    #[test]
    fn min_policy_runs_through_spec() {
        let spec = RunSpec::new("I-MIN", SystemConfig::scaled())
            .with_policy(ziv_replacement::PolicyKind::Min);
        let r = run_one(&spec, &small_workload(2));
        assert!(r.metrics.llc_accesses > 0);
    }

    #[test]
    fn ziv_run_has_zero_inclusion_victims() {
        // Inclusion-victim-heavy mix under LRU: private-cache-resident
        // hot sets (whose LLC copies decay to LRU) plus streaming cores
        // that keep evicting them from the LLC.
        let sys = SystemConfig::scaled();
        let sc = ScaleParams::from_system(&sys);
        let hot = mixes::homogeneous(apps::app_by_name("hotl2").unwrap(), 2, 12_000, 3, sc);
        let stream = mixes::homogeneous(apps::app_by_name("stream").unwrap(), 4, 12_000, 5, sc);
        let mut traces = hot.traces;
        traces.extend(stream.traces.into_iter().skip(2));
        let wl = Workload {
            name: "hot-vs-stream".into(),
            traces,
            attack: None,
        };
        let ziv = RunSpec::new("ZIV", sys.clone()).with_mode(LlcMode::Ziv(ZivProperty::NotInPrC));
        let incl = RunSpec::new("I", sys);
        let rz = run_one(&ziv, &wl);
        let ri = run_one(&incl, &wl);
        assert_eq!(rz.metrics.inclusion_victims, 0);
        assert!(
            ri.metrics.inclusion_victims > 0,
            "circset must create inclusion victims"
        );
    }
}
