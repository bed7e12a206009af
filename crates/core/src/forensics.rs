//! The forensics observatory: per-line provenance, causal chains, and
//! the instigator × victim blame matrix (DESIGN.md §15).
//!
//! The paper's argument is causal — an LLC replacement decision reaches
//! into a private cache and forces a victim that later pays a re-fetch —
//! but the other observatories only record *that* victims happen. This
//! module records *which allocating access caused them* and *who paid*:
//!
//! * a bounded, direct-mapped **provenance table** stamps each LLC line
//!   at fill time with its allocating access (access index, cycle, core,
//!   home location, and the replacement policy's
//!   [`VictimReason`](crate::llc::VictimReason));
//! * every inclusive back-invalidation or ECI tear-out that victimizes
//!   at least one private copy emits a **causal chain**: instigator
//!   access → eviction decision → per-core victims → (via the flight
//!   recorder's [`VictimTable`](crate::observe::VictimTable), which
//!   remembers each victim's chain) the eventual re-fetch and its cycle
//!   cost;
//! * chains aggregate into a **blame matrix** (instigator core × victim
//!   core) plus per-set and per-phase rollups.
//!
//! Conservation is exact and pinned by tests: the matrix's victim total
//! equals [`Metrics::inclusion_victims`](crate::Metrics) (chain victims
//! are noted at exactly the sites that bump the counter), and — because
//! one victim-table lookup per private miss drives both this matrix and
//! the latency observatory's re-fetch class — the matrix's re-fetch
//! cycle total equals
//! [`LatencyReport::inclusion_victim_refetch_cycles`](crate::latency::LatencyReport::inclusion_victim_refetch_cycles)
//! whenever both observatories run. ZIV modes never back-invalidate, so
//! they report exactly zero chains.
//!
//! Like every observatory the forensics layer rides the
//! [`FlightRecorder`](crate::observe::FlightRecorder), whose hooks feed
//! it: never digested, never in the result ledger, one never-taken
//! branch per eviction site when off.

use crate::llc::VictimReason;
use crate::observe::flat_set;
use ziv_common::{CoreId, Cycle, LineAddr};

/// Slots in the direct-mapped provenance table. Like the victim table,
/// a collision overwrites the older stamp, so a chain's allocation
/// provenance is a floor: when present it is exact, when absent the
/// stamp was displaced by a congruent later fill.
pub const PROVENANCE_SLOTS: usize = 4096;

/// Causal chains retained per run, flight-recorder style (the *last* K
/// chains survive; aggregate counters are never dropped).
pub const CHAIN_RING_CAPACITY: usize = 256;

/// Accesses per workload-phase bucket in the per-phase victim rollup.
pub const PHASE_ACCESSES: u64 = 8192;

/// How a line came to be allocated: the fill-time stamp the provenance
/// table keeps per resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvenanceStamp {
    /// 0-based index of the allocating access.
    pub access_index: u64,
    /// Simulation clock at the fill.
    pub cycle: Cycle,
    /// The core whose access filled the line.
    pub core: CoreId,
    /// Home LLC bank of the fill.
    pub bank: u16,
    /// Home set within the bank.
    pub set: u32,
    /// Way the line was installed into.
    pub way: u8,
    /// Why the victim-selection machinery freed that way.
    pub reason: VictimReason,
}

/// Which eviction mechanism triggered a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainKind {
    /// An inclusive LLC eviction back-invalidated private copies.
    Inclusive,
    /// An ECI early invalidation tore private copies out ahead of the
    /// block's eviction.
    Eci,
}

impl ChainKind {
    /// Stable lowercase label (CSV / trace export).
    pub fn label(self) -> &'static str {
        match self {
            ChainKind::Inclusive => "inclusive",
            ChainKind::Eci => "eci",
        }
    }
}

/// One complete causal chain: instigator access → eviction decision →
/// private-copy victims → (eventually) their re-fetch cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalChain {
    /// 0-based chain sequence number (stable instigation order).
    pub seq: u64,
    /// The eviction mechanism.
    pub kind: ChainKind,
    /// The core whose fill instigated the eviction.
    pub instigator_core: CoreId,
    /// 0-based index of the instigating access.
    pub instigator_access: u64,
    /// Simulation clock at the eviction decision.
    pub cycle: Cycle,
    /// The line whose private copies were invalidated.
    pub line: LineAddr,
    /// Home bank of the victimized line.
    pub bank: u16,
    /// Home set of the victimized line.
    pub set: u32,
    /// The instigating fill's victim-choice reason.
    pub reason: VictimReason,
    /// How the victimized line was originally allocated, when its
    /// provenance stamp survived in the bounded table.
    pub alloc: Option<ProvenanceStamp>,
    /// Bitmask of victim cores (bit `c` set ⇔ core `c` lost a copy).
    pub victim_mask: u64,
    /// Private copies invalidated — one per sharer core.
    pub victim_count: u32,
    /// Re-fetches of this line so far attributed back to this chain.
    pub refetches: u32,
    /// Cycles those re-fetches cost (each one's full access latency).
    pub refetch_cycles: u64,
}

/// The live observatory, attached to the flight recorder.
#[derive(Debug)]
pub struct ForensicsObservatory {
    cores: usize,
    banks: usize,
    sets_per_bank: usize,
    /// Direct-mapped provenance stamps: `(line_raw, stamp)`, sentinel
    /// `u64::MAX` for empty.
    provenance: Vec<(u64, ProvenanceStamp)>,
    /// Last-K chain ring (same discipline as `EventRing`).
    chains: Vec<CausalChain>,
    chain_head: usize,
    chains_recorded: u64,
    /// A chain opened by the current eviction, not yet closed. Discarded
    /// at close when no victim materialized (ZIV stays chain-free).
    pending: Option<CausalChain>,
    /// Flat `cores × cores` victim counts, `[instigator * cores + victim]`.
    victim_matrix: Vec<u64>,
    /// Flat `cores × cores` re-fetch counts.
    refetch_matrix: Vec<u64>,
    /// Flat `cores × cores` re-fetch cycles.
    refetch_cycle_matrix: Vec<u64>,
    /// Per-(bank, set) victim counts, flat `bank * sets_per_bank + set`.
    set_victims: Vec<u64>,
    /// Victims per [`PHASE_ACCESSES`]-access phase of the run.
    phase_victims: Vec<u64>,
    fills_stamped: u64,
    inclusive_chains: u64,
    eci_chains: u64,
}

impl ForensicsObservatory {
    /// Creates an empty observatory for a `cores`-core system with a
    /// `banks × sets_per_bank` LLC (both powers of two, matching the
    /// leakage observatory's flat-set mapping).
    pub fn new(cores: usize, banks: usize, sets_per_bank: usize) -> Self {
        debug_assert!(banks.is_power_of_two() && sets_per_bank.is_power_of_two());
        debug_assert!(cores <= 64, "victim masks hold at most 64 cores");
        let empty_stamp = ProvenanceStamp {
            access_index: 0,
            cycle: 0,
            core: CoreId::new(0),
            bank: 0,
            set: 0,
            way: 0,
            reason: VictimReason::InvalidWay,
        };
        ForensicsObservatory {
            cores,
            banks,
            sets_per_bank,
            provenance: vec![(u64::MAX, empty_stamp); PROVENANCE_SLOTS],
            chains: Vec::with_capacity(CHAIN_RING_CAPACITY),
            chain_head: 0,
            chains_recorded: 0,
            pending: None,
            victim_matrix: vec![0; cores * cores],
            refetch_matrix: vec![0; cores * cores],
            refetch_cycle_matrix: vec![0; cores * cores],
            set_victims: vec![0; banks * sets_per_bank],
            phase_victims: Vec::new(),
            fills_stamped: 0,
            inclusive_chains: 0,
            eci_chains: 0,
        }
    }

    /// Stamps a freshly filled line with its allocating access.
    #[inline]
    pub fn stamp_fill(&mut self, line: LineAddr, stamp: ProvenanceStamp) {
        let slot = line.raw() as usize & (PROVENANCE_SLOTS - 1);
        self.provenance[slot] = (line.raw(), stamp);
        self.fills_stamped += 1;
    }

    /// Looks up (without clearing) the provenance of a resident line.
    #[inline]
    fn provenance_peek(&self, line: LineAddr) -> Option<ProvenanceStamp> {
        let slot = line.raw() as usize & (PROVENANCE_SLOTS - 1);
        let (raw, stamp) = self.provenance[slot];
        (raw == line.raw()).then_some(stamp)
    }

    /// Takes (and clears) the provenance of a line leaving the LLC.
    #[inline]
    fn provenance_take(&mut self, line: LineAddr) -> Option<ProvenanceStamp> {
        let slot = line.raw() as usize & (PROVENANCE_SLOTS - 1);
        let (raw, stamp) = self.provenance[slot];
        if raw == line.raw() {
            self.provenance[slot].0 = u64::MAX;
            Some(stamp)
        } else {
            None
        }
    }

    /// Opens a chain for one eviction decision. The chain is kept only
    /// if [`chain_victim`](Self::chain_victim) records at least one
    /// private-copy victim before [`close_chain`](Self::close_chain);
    /// otherwise it is discarded, which is how ZIV modes (whose
    /// relocation-set evictions are provably never privately cached)
    /// stay at exactly zero chains. An inclusive eviction removes the
    /// line, so its provenance stamp is consumed; an ECI tear-out leaves
    /// the LLC copy resident and only peeks.
    #[allow(clippy::too_many_arguments)]
    pub fn open_chain(
        &mut self,
        kind: ChainKind,
        instigator_core: CoreId,
        instigator_access: u64,
        cycle: Cycle,
        line: LineAddr,
        reason: VictimReason,
    ) {
        debug_assert!(self.pending.is_none(), "chains never nest");
        let alloc = match kind {
            ChainKind::Inclusive => self.provenance_take(line),
            ChainKind::Eci => self.provenance_peek(line),
        };
        let flat = flat_set(line.raw(), self.banks, self.sets_per_bank);
        self.pending = Some(CausalChain {
            seq: self.chains_recorded,
            kind,
            instigator_core,
            instigator_access,
            cycle,
            line,
            bank: (flat / self.sets_per_bank) as u16,
            set: (flat % self.sets_per_bank) as u32,
            reason,
            alloc,
            victim_mask: 0,
            victim_count: 0,
            refetches: 0,
            refetch_cycles: 0,
        });
    }

    /// Records one private-copy victim of the open chain — called from
    /// exactly the sites that bump `Metrics::inclusion_victims`, which
    /// is what makes the victim total conserve. Returns the chain's
    /// sequence number, which the victim table keeps so the core's next
    /// miss on the line can be blamed back on this chain.
    #[inline]
    pub fn chain_victim(&mut self, victim: CoreId) -> u64 {
        let chain = self
            .pending
            .as_mut()
            .expect("chain_victim outside an open chain");
        chain.victim_mask |= 1 << victim.index().min(63);
        chain.victim_count += 1;
        let seq = chain.seq;
        let instigator = chain.instigator_core;
        let phase = (chain.instigator_access / PHASE_ACCESSES) as usize;
        let flat = flat_set(chain.line.raw(), self.banks, self.sets_per_bank);
        self.victim_matrix[instigator.index() * self.cores + victim.index()] += 1;
        self.set_victims[flat] += 1;
        if self.phase_victims.len() <= phase {
            self.phase_victims.resize(phase + 1, 0);
        }
        self.phase_victims[phase] += 1;
        seq
    }

    /// Closes the chain opened by the current eviction, retaining it
    /// only when it victimized at least one private copy.
    pub fn close_chain(&mut self) {
        let chain = self.pending.take().expect("close_chain without open_chain");
        if chain.victim_count == 0 {
            return;
        }
        match chain.kind {
            ChainKind::Inclusive => self.inclusive_chains += 1,
            ChainKind::Eci => self.eci_chains += 1,
        }
        if self.chains.len() < CHAIN_RING_CAPACITY {
            self.chains.push(chain);
        } else {
            self.chains[self.chain_head] = chain;
            self.chain_head = (self.chain_head + 1) % CHAIN_RING_CAPACITY;
        }
        self.chains_recorded += 1;
    }

    /// Attributes one completed re-fetch (full access latency `cycles`)
    /// back to the chain the victim table identified. The blame matrix is
    /// updated unconditionally; the chain record itself only if it still
    /// sits in the bounded ring.
    pub fn record_refetch(&mut self, instigator: CoreId, victim: CoreId, seq: u64, cycles: Cycle) {
        let cell = instigator.index() * self.cores + victim.index();
        self.refetch_matrix[cell] += 1;
        self.refetch_cycle_matrix[cell] += cycles;
        if let Some(chain) = self.chains.iter_mut().find(|c| c.seq == seq) {
            chain.refetches += 1;
            chain.refetch_cycles += cycles;
        }
    }

    /// Seals the observatory into its report.
    pub fn finish(mut self) -> ForensicsReport {
        debug_assert!(self.pending.is_none(), "run ended mid-chain");
        // Unroll the ring into instigation order.
        let mut chains = Vec::with_capacity(self.chains.len());
        chains.extend_from_slice(&self.chains[self.chain_head..]);
        chains.extend_from_slice(&self.chains[..self.chain_head]);
        self.chains.clear();
        ForensicsReport {
            cores: self.cores,
            banks: self.banks,
            sets_per_bank: self.sets_per_bank,
            victim_matrix: self.victim_matrix,
            refetch_matrix: self.refetch_matrix,
            refetch_cycle_matrix: self.refetch_cycle_matrix,
            set_victims: self.set_victims,
            phase_victims: self.phase_victims,
            chains,
            chains_recorded: self.chains_recorded,
            inclusive_chains: self.inclusive_chains,
            eci_chains: self.eci_chains,
            fills_stamped: self.fills_stamped,
        }
    }
}

/// The end-of-run forensics payload, carried in
/// [`Observations`](crate::observe::Observations).
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicsReport {
    /// Core count (matrix dimension).
    pub cores: usize,
    /// LLC banks (per-set rollup rows).
    pub banks: usize,
    /// Sets per bank (per-set rollup columns).
    pub sets_per_bank: usize,
    /// Flat `cores × cores` victim counts,
    /// `[instigator * cores + victim]`.
    pub victim_matrix: Vec<u64>,
    /// Flat `cores × cores` re-fetch counts.
    pub refetch_matrix: Vec<u64>,
    /// Flat `cores × cores` re-fetch cycles.
    pub refetch_cycle_matrix: Vec<u64>,
    /// Per-(bank, set) victim counts, flat `bank * sets + set`.
    pub set_victims: Vec<u64>,
    /// Victims per [`PHASE_ACCESSES`]-access phase.
    pub phase_victims: Vec<u64>,
    /// The last [`CHAIN_RING_CAPACITY`] chains, instigation order.
    pub chains: Vec<CausalChain>,
    /// Chains ever recorded (including ring-overwritten ones).
    pub chains_recorded: u64,
    /// Chains whose mechanism was an inclusive eviction.
    pub inclusive_chains: u64,
    /// Chains whose mechanism was an ECI early invalidation.
    pub eci_chains: u64,
    /// Fills stamped into the provenance table.
    pub fills_stamped: u64,
}

impl ForensicsReport {
    /// One blame cell's victim count.
    pub fn victims(&self, instigator: usize, victim: usize) -> u64 {
        self.victim_matrix[instigator * self.cores + victim]
    }

    /// One blame cell's re-fetch count.
    pub fn refetches(&self, instigator: usize, victim: usize) -> u64 {
        self.refetch_matrix[instigator * self.cores + victim]
    }

    /// One blame cell's re-fetch cycles.
    pub fn refetch_cycles(&self, instigator: usize, victim: usize) -> u64 {
        self.refetch_cycle_matrix[instigator * self.cores + victim]
    }

    /// Total victims across the matrix — conserves exactly against
    /// `Metrics::inclusion_victims`.
    pub fn total_victims(&self) -> u64 {
        self.victim_matrix.iter().sum()
    }

    /// Total attributed re-fetches.
    pub fn total_refetches(&self) -> u64 {
        self.refetch_matrix.iter().sum()
    }

    /// Total attributed re-fetch cycles — equals
    /// `LatencyReport::inclusion_victim_refetch_cycles()` when the
    /// latency observatory ran alongside.
    pub fn total_refetch_cycles(&self) -> u64 {
        self.refetch_cycle_matrix.iter().sum()
    }

    /// Victims instigated by `core` against *other* cores (the
    /// cross-core slice an isolation defense eliminates).
    pub fn cross_core_victims(&self, core: usize) -> u64 {
        (0..self.cores)
            .filter(|&v| v != core)
            .map(|v| self.victims(core, v))
            .sum()
    }

    /// The retained chains ordered most-damaging first: by victim
    /// count, then re-fetch cycles, then earliest sequence — a total
    /// order, so the `blame` table is deterministic across thread
    /// counts.
    pub fn top_chains(&self, k: usize) -> Vec<&CausalChain> {
        let mut ordered: Vec<&CausalChain> = self.chains.iter().collect();
        ordered.sort_by(|a, b| {
            b.victim_count
                .cmp(&a.victim_count)
                .then(b.refetch_cycles.cmp(&a.refetch_cycles))
                .then(a.seq.cmp(&b.seq))
        });
        ordered.truncate(k);
        ordered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(access: u64, core: usize) -> ProvenanceStamp {
        ProvenanceStamp {
            access_index: access,
            cycle: access * 10,
            core: CoreId::new(core),
            bank: 0,
            set: 1,
            way: 2,
            reason: VictimReason::Baseline,
        }
    }

    fn line(raw: u64) -> LineAddr {
        LineAddr::new(raw)
    }

    #[test]
    fn chain_records_victims_and_provenance() {
        let mut f = ForensicsObservatory::new(4, 4, 16);
        f.stamp_fill(line(0x55), stamp(3, 2));
        f.open_chain(
            ChainKind::Inclusive,
            CoreId::new(0),
            10,
            100,
            line(0x55),
            VictimReason::QbsFallback,
        );
        f.chain_victim(CoreId::new(1));
        f.chain_victim(CoreId::new(2));
        f.close_chain();
        let r = f.finish();
        assert_eq!(r.total_victims(), 2);
        assert_eq!(r.victims(0, 1), 1);
        assert_eq!(r.victims(0, 2), 1);
        assert_eq!(r.chains_recorded, 1);
        assert_eq!(r.inclusive_chains, 1);
        let c = &r.chains[0];
        assert_eq!(c.victim_count, 2);
        assert_eq!(c.victim_mask, 0b110);
        assert_eq!(c.reason, VictimReason::QbsFallback);
        assert_eq!(c.alloc.unwrap().access_index, 3);
        assert_eq!(c.alloc.unwrap().core.index(), 2);
        assert_eq!(r.cross_core_victims(0), 2);
        assert_eq!(r.phase_victims, vec![2]);
    }

    #[test]
    fn victimless_chains_are_discarded() {
        let mut f = ForensicsObservatory::new(2, 4, 16);
        f.open_chain(
            ChainKind::Inclusive,
            CoreId::new(0),
            0,
            0,
            line(0x10),
            VictimReason::ZivRelocation,
        );
        f.close_chain();
        let r = f.finish();
        assert_eq!(r.chains_recorded, 0);
        assert_eq!(r.total_victims(), 0);
        assert!(r.chains.is_empty());
    }

    #[test]
    fn inclusive_chain_consumes_provenance_eci_peeks() {
        let mut f = ForensicsObservatory::new(2, 4, 16);
        f.stamp_fill(line(0x20), stamp(1, 0));
        // ECI tear-out leaves the LLC copy (and its stamp) resident.
        f.open_chain(
            ChainKind::Eci,
            CoreId::new(0),
            5,
            50,
            line(0x20),
            VictimReason::Baseline,
        );
        f.chain_victim(CoreId::new(1));
        f.close_chain();
        // The later inclusive eviction still sees the stamp, then
        // consumes it.
        f.open_chain(
            ChainKind::Inclusive,
            CoreId::new(1),
            9,
            90,
            line(0x20),
            VictimReason::Baseline,
        );
        f.chain_victim(CoreId::new(0));
        f.close_chain();
        let r = f.finish();
        assert_eq!(r.eci_chains, 1);
        assert_eq!(r.inclusive_chains, 1);
        assert!(r.chains[0].alloc.is_some());
        assert!(r.chains[1].alloc.is_some());
    }

    #[test]
    fn refetches_are_blamed_on_their_chain() {
        let mut f = ForensicsObservatory::new(2, 4, 16);
        f.open_chain(
            ChainKind::Inclusive,
            CoreId::new(0),
            0,
            0,
            line(0x7),
            VictimReason::Baseline,
        );
        let seq = f.chain_victim(CoreId::new(1));
        f.close_chain();
        f.record_refetch(CoreId::new(0), CoreId::new(1), seq, 123);
        let r = f.finish();
        assert_eq!(r.total_refetches(), 1);
        assert_eq!(r.total_refetch_cycles(), 123);
        assert_eq!(r.refetch_cycles(0, 1), 123);
        let back = r.chains.iter().find(|c| c.seq == seq).unwrap();
        assert_eq!(back.refetch_cycles, 123);
        assert_eq!(back.refetches, 1);
    }

    #[test]
    fn chain_ring_keeps_last_k_but_counters_keep_everything() {
        let mut f = ForensicsObservatory::new(2, 4, 16);
        let n = CHAIN_RING_CAPACITY as u64 + 10;
        for i in 0..n {
            f.open_chain(
                ChainKind::Inclusive,
                CoreId::new(0),
                i,
                i,
                line(0x40 + i),
                VictimReason::Baseline,
            );
            f.chain_victim(CoreId::new(1));
            f.close_chain();
        }
        let r = f.finish();
        assert_eq!(r.chains_recorded, n);
        assert_eq!(r.total_victims(), n, "aggregates survive ring overwrite");
        assert_eq!(r.chains.len(), CHAIN_RING_CAPACITY);
        assert_eq!(r.chains[0].seq, 10, "oldest retained chain");
        assert_eq!(r.chains.last().unwrap().seq, n - 1);
    }

    #[test]
    fn top_chains_order_is_total_and_deterministic() {
        let mut f = ForensicsObservatory::new(4, 4, 16);
        for (i, victims) in [2u32, 1, 2].iter().enumerate() {
            f.open_chain(
                ChainKind::Inclusive,
                CoreId::new(0),
                i as u64,
                0,
                line(0x100 + i as u64),
                VictimReason::Baseline,
            );
            for v in 0..*victims {
                f.chain_victim(CoreId::new(1 + v as usize));
            }
            f.close_chain();
        }
        let r = f.finish();
        let top: Vec<u64> = r.top_chains(2).iter().map(|c| c.seq).collect();
        // Ties on victim count and cycles break by earliest sequence.
        assert_eq!(top, vec![0, 2]);
        assert_eq!(r.top_chains(10).len(), 3);
    }

    #[test]
    fn phase_rollup_buckets_by_instigator_access() {
        let mut f = ForensicsObservatory::new(2, 4, 16);
        for access in [0, PHASE_ACCESSES - 1, PHASE_ACCESSES * 2] {
            f.open_chain(
                ChainKind::Inclusive,
                CoreId::new(0),
                access,
                0,
                line(0x40 + access),
                VictimReason::Baseline,
            );
            f.chain_victim(CoreId::new(1));
            f.close_chain();
        }
        let r = f.finish();
        assert_eq!(r.phase_victims, vec![2, 0, 1]);
        assert_eq!(r.set_victims.iter().sum::<u64>(), r.total_victims());
    }
}
