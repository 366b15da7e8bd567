//! The noise-resilient simulation (Algorithm 1 / A / B / C).
//!
//! [`Simulation`] compiles a noiseless [`Workload`] Π into the padded,
//! chunked Π′ and runs the paper's iteration loop over a noisy
//! [`Network`]: meeting points → flag passing → simulation → rewind, with
//! an optional randomness-exchange prologue (Algorithm 5) when no CRS is
//! assumed. The [`SimOutcome`] reports success against the noiseless
//! reference run, communication blow-up, and instrumentation.
//!
//! Hot-path layout: all per-party state ([`SimParty`]) is **flat** —
//! neighbor-indexed dense vectors addressed through the graph's
//! precomputed [`netgraph::Graph::link_src_nbr`]/`link_dst_nbr` tables,
//! bitsets for per-neighbor flags, and a [`RunScratch`] arena that pools
//! the per-chunk allocations so repeated trials ([`Simulation::run_with_scratch`])
//! allocate nothing per chunk. Transcript hashing is incremental (see
//! [`crate::transcript`]): each link owns a persistent sketch, and the
//! meeting-points phase hashes `O(τ)` bits per link per iteration instead
//! of the whole transcript.
//!
//! Wire rounds are **word-batched** where the rounds are independent
//! ([`WireMode::Batched`], the default): the 4τ meeting-points rounds
//! marshal each link's [`MpMessage`] into a [`netsim::FrameBatch`] lane
//! once ([`MpMessage::to_words`]) and go through a single
//! [`netsim::Network::step_rounds_into`] call, as does the Algorithm 5
//! randomness-exchange prologue (LinkId-indexed dense lanes end to end).
//! Flag passing is data-dependent round to round, so it stays bit-serial
//! but drives precompiled per-round event schedules; the rewind wave
//! tracks which parties can still send (truncation events only). Chunk
//! slot tables and per-neighbor symbol positions come precompiled from
//! [`protocol::ChunkedProtocol`] (`party_slots_cached`/`party_plan`),
//! and party snapshots are copy-on-write ([`protocol::ChunkedParty`]),
//! so an iteration deep-clones only states that actually advance Π.
//! [`WireMode::Reference`] keeps the bit-serial rounds as the executable
//! specification — the `wire_batch` integration suite cross-checks
//! byte-identical [`SimOutcome`]s between the modes.

// Throughout this module `u` is simultaneously a node id (sent on the
// wire, compared against link endpoints) and the index into the
// per-party state vectors; iterator-based rewrites of those loops obscure
// that correspondence.
#![allow(clippy::needless_range_loop)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::artifact::SimStatics;
use crate::config::{
    AdversaryClass, HashingMode, RandomnessMode, SchemeConfig, SeedExpansion, WireMode,
};

use crate::fault::FaultPlan;
use crate::instrument::{Instrumentation, IterationSample};
use crate::meeting::{transcript_hash, LinkStatus, MpMessage, MpState, RecvMpMessage};
use crate::transcript::{sym_delta, LinkTranscript, TranscriptHasher, SKETCH_BITS};
use netgraph::{DirectedLink, EdgeId, Graph, LinkId, NodeId};
use netsim::{
    AdaptiveView, Adversary, Corruption, EdgeMpView, FlagView, FrameBatch, MpSideView, NetStats,
    Network, PhaseGeometry, PhasePos, RoundFrame, Sends,
};
use protocol::reference::{run_reference, ReferenceRun};
use protocol::{ChunkRecord, ChunkedParty, ChunkedProtocol, SlotKind, Sym, Workload};
use rscode::{BinaryCode, BinaryWord};
use smallbias::{
    sketch_column_pair, splitmix64, CrsSource, DeltaBiasedSource, SeedLabel, SeedSource, Xoshiro256,
};

/// Seed slot of the per-iteration `h(k)` hash.
const SLOT_K: u32 = 0;
/// Seed slot of the per-iteration outer transcript hashes.
const SLOT_OUTER: u32 = 1;
/// Seed slot of the persistent per-link sketch (addressed at iteration 0;
/// the sketch seed is iteration-independent by design — that is what makes
/// the fold cacheable).
const SLOT_SKETCH: u32 = 2;
/// Seed slots per (iteration, channel) label pair.
const SEED_SLOTS: u64 = 3;

/// Label of the persistent sketch seed of `edge`.
fn sketch_label(edge: EdgeId) -> SeedLabel {
    SeedLabel {
        iteration: 0,
        channel: edge as u64,
        slot: SLOT_SKETCH,
    }
}

/// Why a run degraded instead of decoding correctly.
///
/// The taxonomy is deliberately coarse: it answers "was the adversary or
/// the fault schedule to blame?", which is what the churn experiments
/// aggregate over. Finer attribution lives in the fault counters of
/// [`Instrumentation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// No faults were injected: the corruption load alone exceeded what
    /// the iteration budget could repair.
    NoiseOverwhelmed,
    /// At least one scheduled fault fired (link outage or party crash):
    /// the churn plus any noise exceeded the repair budget.
    FaultChurn,
}

/// The explicit terminal verdict of a run: decoded correctly, or degraded
/// with a stated reason. A run is **never silently wrong** — `Degraded`
/// is an explicit outcome, pinned by the invariant suite to coincide
/// exactly with `success == false`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Transcripts and outputs both match the noiseless reference.
    DecodedCorrect,
    /// The run terminated with incorrect transcripts or outputs, and says
    /// so explicitly.
    Degraded {
        /// Coarse blame attribution.
        reason: DegradeReason,
    },
}

impl Verdict {
    /// Stable numeric code for serialized rows: 0 = decoded correct,
    /// 1 = noise overwhelmed, 2 = fault churn.
    pub fn code(&self) -> u8 {
        match self {
            Verdict::DecodedCorrect => 0,
            Verdict::Degraded {
                reason: DegradeReason::NoiseOverwhelmed,
            } => 1,
            Verdict::Degraded {
                reason: DegradeReason::FaultChurn,
            } => 2,
        }
    }

    /// Whether the verdict is [`Verdict::DecodedCorrect`].
    pub fn is_correct(&self) -> bool {
        matches!(self, Verdict::DecodedCorrect)
    }
}

/// Result of one noisy simulation.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// `transcripts_ok && outputs_ok`.
    pub success: bool,
    /// Every link transcript at both endpoints matches the noiseless
    /// reference on all real chunks.
    pub transcripts_ok: bool,
    /// Every party's replayed output equals its reference output.
    pub outputs_ok: bool,
    /// Engine accounting (CC, corruptions, rounds).
    pub stats: NetStats,
    /// `CC(Π)` — bits of the original unpadded protocol.
    pub payload_cc: u64,
    /// `|Π| × 5K` — bits of the padded chunked protocol.
    pub padded_cc: u64,
    /// Communication blow-up `CC(sim) / CC(Π)` (the inverse of the rate).
    pub blowup: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Final `G*` (endpoint agreement, in chunks).
    pub g_star: usize,
    /// Final `B*`.
    pub b_star: usize,
    /// Collected instrumentation.
    pub instrumentation: Instrumentation,
    /// Explicit terminal verdict: [`Verdict::DecodedCorrect`] or
    /// [`Verdict::Degraded`] with a reason — never silently wrong.
    pub verdict: Verdict,
}

/// Options for [`Simulation::run`].
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Hard cap on adversarial corruptions.
    pub noise_budget: u64,
    /// Record a per-iteration [`IterationSample`] trace.
    pub record_trace: bool,
    /// Pass the live view to the adversary (required by non-oblivious
    /// attacks; harmless for oblivious ones, which ignore it).
    pub expose_view: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            noise_budget: u64::MAX,
            record_trace: false,
            expose_view: true,
        }
    }
}

/// Reusable buffers of one simulation run: the two scratch wire frames and
/// the per-chunk allocation arena.
///
/// [`Simulation::run`] creates one internally;
/// [`Simulation::run_with_scratch`] lets a trial driver (each `serve`
/// worker, which `bench::run_many` batches also run on) carry the same
/// scratch across trials so repeated runs stop allocating per chunk. A
/// scratch is topology-agnostic: it resizes itself to whatever graph the
/// next run uses.
#[derive(Default)]
pub struct RunScratch {
    frames: Option<Frames>,
    arena: Arena,
    /// Batch buffers of the exchange prologue and the per-iteration
    /// meeting-points rounds.
    batches: Option<Batches>,
    /// Batch buffers of the (disabled-)rewind phase, kept separate so
    /// alternating phase geometries never thrash one slot.
    rewind_batches: Option<Batches>,
    /// Reusable party-tracking buffers of the rewind wave.
    rewind_parties: RewindScratch,
    /// Persistent intra-trial worker pool, rebuilt only when the resolved
    /// thread count changes. A run enters a parallel region twice per
    /// iteration; keeping the workers alive across regions (and across
    /// trials sharing this scratch) is what makes those regions cheaper
    /// than the serial loop they replace.
    pool: Option<crossbeam::WorkerPool>,
}

/// The rewind wave's active-set tracking buffers (see
/// [`Simulation`]'s rewind phase): pooled here so an iteration allocates
/// nothing.
#[derive(Default)]
struct RewindScratch {
    active: Vec<NodeId>,
    next: Vec<NodeId>,
    marked: Vec<bool>,
}

impl RunScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        RunScratch::default()
    }

    fn frames_for(&mut self, graph: &Graph) -> &mut Frames {
        let need = graph.link_count();
        if self.frames.as_ref().map(|f| f.tx.link_count()) != Some(need) {
            self.frames = Some(Frames {
                tx: RoundFrame::for_graph(graph),
                rx: RoundFrame::for_graph(graph),
            });
        }
        self.frames.as_mut().unwrap()
    }
}

/// The batched counterpart of [`Frames`]: one tx and one rx
/// [`FrameBatch`], re-shaped in place whenever its phase needs a
/// different `(links, rounds)` geometry. Each batched phase family gets
/// its own slot in [`RunScratch`] (meeting-points/exchange vs. rewind),
/// so after warm-up a run never reallocates a batch.
struct Batches {
    tx: FrameBatch,
    rx: FrameBatch,
}

/// The scratch's batch buffers, (re)sized to `links × rounds`.
fn batches_for(slot: &mut Option<Batches>, links: usize, rounds: usize) -> &mut Batches {
    let fits = slot
        .as_ref()
        .map(|b| b.tx.link_count() == links && b.tx.rounds() == rounds)
        .unwrap_or(false);
    if !fits {
        *slot = Some(Batches {
            tx: FrameBatch::new(links, rounds),
            rx: FrameBatch::new(links, rounds),
        });
    }
    slot.as_mut().unwrap()
}

/// Pool of retired per-chunk allocations.
#[derive(Default)]
struct Arena {
    syms: Vec<Vec<Sym>>,
}

/// A configured, compiled simulation instance.
pub struct Simulation<'w> {
    workload: &'w dyn Workload,
    cfg: SchemeConfig,
    statics: Arc<SimStatics>,
    reference: ReferenceRun,
    geometry: PhaseGeometry,
    iterations: usize,
    trial_seed: u64,
    exchange_bits: usize,
    max_link_syms: usize,
}

impl<'w> Simulation<'w> {
    /// Compiles `workload` under `cfg`. `trial_seed` drives all private
    /// party randomness (exchanged seeds).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid for the workload's graph.
    pub fn new(workload: &'w dyn Workload, cfg: SchemeConfig, trial_seed: u64) -> Self {
        cfg.validate(workload.graph());
        let statics = Arc::new(SimStatics::compile(workload, cfg.chunk_bits()));
        Simulation::with_statics(workload, cfg, trial_seed, statics)
    }

    /// [`Simulation::new`] with the structural artifacts supplied by the
    /// caller — typically an [`crate::ArtifactCache`] entry shared across
    /// requests. Because [`SimStatics::compile`] is deterministic in the
    /// workload's structure, running with cached statics is byte-identical
    /// to compiling fresh; only the compile cost changes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid for the workload's graph. In debug
    /// builds, also asserts that `statics` fingerprints to exactly what
    /// `(workload, cfg.chunk_bits())` would compile to — handing in
    /// statics for a different structure is a caller bug.
    pub fn with_statics(
        workload: &'w dyn Workload,
        cfg: SchemeConfig,
        trial_seed: u64,
        statics: Arc<SimStatics>,
    ) -> Self {
        cfg.validate(workload.graph());
        debug_assert_eq!(
            statics.fingerprint,
            crate::artifact::statics_fingerprint(workload, cfg.chunk_bits()),
            "statics compiled for a different (graph, schedule, chunk_bits)"
        );
        let reference = run_reference(workload, &statics.proto);
        let iterations = cfg.iterations(statics.proto.real_chunks());
        let exchange_bits = match &cfg.randomness {
            RandomnessMode::Crs { .. } => 0,
            RandomnessMode::Exchanged {
                code_repetitions, ..
            } => {
                let code = BinaryCode::rate_one_third();
                code.encoded_len(128) * code_repetitions.max(&1)
            }
        };
        let geometry = PhaseGeometry {
            setup: exchange_bits as u64,
            meeting_points: 4 * cfg.hash_bits as u64,
            flag_passing: statics.plan.rounds() as u64,
            simulation: 1 + statics.proto.max_rounds_per_chunk() as u64,
            rewind: cfg.rewind_rounds as u64,
        };
        let max_link_syms = max_link_syms(&statics.proto, &statics.graph);
        Simulation {
            workload,
            cfg,
            statics,
            reference,
            geometry,
            iterations,
            trial_seed,
            exchange_bits,
            max_link_syms,
        }
    }

    /// The fixed phase layout (public; hand it to phase-targeted attacks).
    pub fn geometry(&self) -> PhaseGeometry {
        self.geometry
    }

    /// Replaces the run's fault schedule after construction.
    ///
    /// The plan normally travels inside [`SchemeConfig::faults`], but
    /// trial drivers often need the compiled geometry (predicted rounds)
    /// to *build* the plan, which they only have once the simulation
    /// exists — this setter closes that ordering loop without recompiling
    /// statics.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.cfg.faults = plan;
    }

    /// The chunked protocol Π′.
    pub fn proto(&self) -> &ChunkedProtocol {
        &self.statics.proto
    }

    /// The noiseless reference run.
    pub fn reference(&self) -> &ReferenceRun {
        &self.reference
    }

    /// Iterations the simulation will execute.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// A rough prediction of total communication, for sizing noise budgets
    /// before running: metadata plus one chunk per iteration plus the
    /// exchange.
    pub fn predicted_cc(&self) -> u64 {
        let m = self.statics.graph.edge_count() as u64;
        let per_iter = 2 * m * 4 * self.cfg.hash_bits as u64  // meeting points
            + 2 * (self.statics.graph.node_count() as u64 - 1)        // flag passing
            + self.cfg.chunk_bits() as u64; // simulated chunk
        self.exchange_bits as u64 * m + self.iterations as u64 * per_iter
    }

    /// Runs the simulation against `adversary`.
    pub fn run(&self, adversary: Box<dyn Adversary>, opts: RunOptions) -> SimOutcome {
        self.run_with_scratch(adversary, opts, &mut RunScratch::new())
    }

    /// Runs the simulation against `adversary`, reusing `scratch`'s
    /// buffers. Outcomes are identical to [`Simulation::run`]; trial
    /// drivers pass the same scratch to consecutive runs so per-chunk and
    /// per-round allocations are paid once per thread, not per trial.
    pub fn run_with_scratch(
        &self,
        adversary: Box<dyn Adversary>,
        opts: RunOptions,
        scratch: &mut RunScratch,
    ) -> SimOutcome {
        let mut net = Network::new(self.statics.graph.clone(), adversary, opts.noise_budget);
        // Wire-level fault injection: compiled once per run, applied by
        // the engine on both the serial and batched step paths. The empty
        // plan installs nothing, keeping the no-fault fast path (and all
        // existing byte-identity fixtures) untouched.
        let first_fault = self.cfg.faults.first_round();
        if !self.cfg.faults.is_empty() {
            net.install_faults(self.cfg.faults.compile(&self.statics.graph));
        }
        let (mut parties, mut lanes) = self.init_state();
        // Resolved once per run so `Parallelism::Auto` reads the
        // environment once, not per phase; the pool persists across runs
        // sharing this scratch as long as the count stays the same.
        let threads = self.cfg.parallelism.resolve();
        if scratch.pool.as_ref().map(crossbeam::WorkerPool::threads) != Some(threads) {
            scratch.pool = Some(crossbeam::WorkerPool::new(threads));
        }
        scratch.frames_for(&self.statics.graph);
        let RunScratch {
            frames,
            arena,
            batches,
            rewind_batches,
            rewind_parties,
            pool,
        } = scratch;
        let pool = pool.as_ref().expect("pool sized above");
        let fr = frames.as_mut().expect("frames sized above");
        // Lanes take their chunk buffers from the arena the previous run
        // recycled them into, so a pooled scratch stops growing.
        for lane in &mut lanes {
            lane.inprog = arena.syms.pop().unwrap_or_default();
        }
        let sources = self.establish_randomness(&mut net, fr, batches);
        self.attach_hashers(&mut lanes, &sources);
        let mut inst = Instrumentation::default();
        // The adversary's cross-iteration scratch slot: owned by the run,
        // surfaced through the view, never read by honest parties.
        let memory = Cell::new(0u64);

        for iter in 0..self.iterations {
            self.meeting_points_phase(
                &mut net,
                &mut parties,
                &mut lanes,
                &sources,
                iter as u64,
                pool,
                &mut inst,
                fr,
                batches,
                &memory,
                opts,
            );
            self.flag_passing_phase(
                &mut net,
                &mut parties,
                &lanes,
                &sources,
                &mut inst,
                fr,
                &memory,
                opts,
            );
            self.simulation_phase(
                &mut net,
                &mut parties,
                &mut lanes,
                &sources,
                iter as u64,
                pool,
                fr,
                arena,
                &memory,
                opts,
            );
            let rewinds_before = inst.rewind_truncations;
            self.rewind_phase(
                &mut net,
                &mut parties,
                &mut lanes,
                &sources,
                &mut inst,
                fr,
                rewind_batches,
                rewind_parties,
                &memory,
                opts,
            );
            // Attribute rewind-wave repair work performed at or after the
            // first scheduled fault to resync (the documented recovery
            // rule: crashed/partitioned neighborhoods re-converge through
            // the ordinary meeting-point + rewind machinery).
            if first_fault.is_some_and(|f| net.stats().rounds > f) {
                inst.resync_rewinds += inst.rewind_truncations - rewinds_before;
            }
            if opts.record_trace {
                self.sample(&lanes, &net, iter as u64, &mut inst);
            }
        }
        let outcome = self.evaluate(&parties, &lanes, &net, inst);
        // Recycle this run's buffers into the scratch for the next trial:
        // every chunk's symbol vector (the transcripts are fully read by
        // `evaluate` above) plus the lane-local pools.
        for lane in &mut lanes {
            lane.t.truncate_into(0, &mut arena.syms);
            arena.syms.push(std::mem::take(&mut lane.inprog));
            arena.syms.append(&mut lane.pool);
        }
        outcome
    }

    /// Dense index of the directed link `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if `(from, to)` is not an edge of the topology.
    #[inline]
    fn lid(&self, from: NodeId, to: NodeId) -> LinkId {
        self.statics
            .graph
            .link_id(DirectedLink { from, to })
            .expect("send on non-edge")
    }

    fn init_state(&self) -> (Vec<SimParty>, Vec<LinkLane>) {
        let parties = (0..self.statics.graph.node_count())
            .map(|u| {
                let neighbors: Vec<NodeId> = self.statics.graph.neighbors(u).to_vec();
                let deg = neighbors.len();
                let lid_out: Vec<LinkId> = neighbors.iter().map(|&v| self.lid(u, v)).collect();
                let lid_in: Vec<LinkId> = neighbors.iter().map(|&v| self.lid(v, u)).collect();
                SimParty {
                    node: u,
                    neighbors,
                    lid_out,
                    lid_in,
                    snapshots: vec![ChunkedParty::spawn(self.workload, u)],
                    status: true,
                    fp_agg: true,
                    net_correct: true,
                    sim_active: false,
                    sim_chunk: 0,
                    excluded: NbrSet::with_capacity(deg),
                    work: None,
                    pslot_cursor: 0,
                    already_rewound: NbrSet::with_capacity(deg),
                }
            })
            .collect();
        let lanes = (0..self.statics.graph.link_count())
            .map(|_| LinkLane::new())
            .collect();
        (parties, lanes)
    }

    /// Attaches the per-link sketch backends (incremental or reference,
    /// per the config) once the seed sources exist. Links are edge-major
    /// (`lid(u → v) = 2e` for `u < v`), so the lane's edge id is `lid / 2`.
    fn attach_hashers(&self, lanes: &mut [LinkLane], sources: &Sources) {
        for (lid, lane) in lanes.iter_mut().enumerate() {
            let src = Arc::clone(&sources.by_link[lid]);
            let label = sketch_label(lid / 2);
            let hasher = match self.cfg.hashing {
                HashingMode::Incremental => TranscriptHasher::incremental(src, label),
                HashingMode::Reference => TranscriptHasher::reference(src, label),
            };
            lane.t.attach_hasher(hasher);
        }
    }

    /// Randomness provisioning: CRS, or the Algorithm 5 exchange.
    ///
    /// The exchange's wire state is [`LinkId`]-indexed and dense end to
    /// end: each transmitting link's coded seed is packed into a word
    /// lane, pushed through one batched engine step (or bit-serially
    /// under [`WireMode::Reference`] — identical receptions), and decoded
    /// straight off the received lane.
    fn establish_randomness(
        &self,
        net: &mut Network,
        fr: &mut Frames,
        batches: &mut Option<Batches>,
    ) -> Sources {
        // `by_link[lid(u → v)]` is the source party `u` uses for the link.
        match &self.cfg.randomness {
            RandomnessMode::Crs { master, .. } => {
                let src: Arc<dyn SeedSource> = Arc::new(CrsSource::new(*master));
                Sources {
                    by_link: self
                        .statics
                        .graph
                        .links()
                        .iter()
                        .map(|_| Arc::clone(&src))
                        .collect(),
                }
            }
            RandomnessMode::Exchanged {
                expansion,
                code_repetitions,
            } => {
                let reps = (*code_repetitions).max(1);
                let code = BinaryCode::rate_one_third();
                let m = self.statics.graph.edge_count();
                let rounds = self.exchange_bits;
                let lane_words = rounds.div_ceil(64).max(1);
                // Per edge: the lower endpoint samples and transmits a
                // 128-bit seed, RS-coded and repeated, packed into a lane.
                let mut true_seeds: Vec<(u64, u64)> = Vec::with_capacity(m);
                let mut lanes: Vec<u64> = vec![0; m * lane_words];
                for (e, _, _) in self.statics.graph.edges() {
                    let mut rng =
                        Xoshiro256::seeded(self.trial_seed ^ splitmix64(&mut (e as u64 + 1)));
                    let (x, y) = (rng.next_u64(), rng.next_u64());
                    true_seeds.push((x, y));
                    let mut seed_bits = Vec::with_capacity(128);
                    for j in 0..64 {
                        seed_bits.push((x >> j) & 1 == 1);
                    }
                    for j in 0..64 {
                        seed_bits.push((y >> j) & 1 == 1);
                    }
                    let one = code.encode(&seed_bits).bits;
                    let lane = &mut lanes[e * lane_words..(e + 1) * lane_words];
                    for o in 0..rounds {
                        if one[o % one.len()] {
                            lane[o / 64] |= 1 << (o % 64);
                        }
                    }
                }
                // Transmit, one bit per edge per round (sender = lower id).
                let elids: Vec<LinkId> = self
                    .statics
                    .graph
                    .edges()
                    .map(|(_, u, v)| self.lid(u, v))
                    .collect();
                let mut received: Vec<Vec<Option<bool>>> = vec![vec![None; rounds]; m];
                match self.cfg.wire {
                    WireMode::Batched => {
                        let b = batches_for(batches, self.statics.graph.link_count(), rounds);
                        b.tx.clear_all();
                        for e in 0..m {
                            b.tx.set_bits(
                                elids[e],
                                &lanes[e * lane_words..(e + 1) * lane_words],
                                rounds,
                            );
                        }
                        net.step_rounds_into(&b.tx, None, &mut b.rx);
                        for e in 0..m {
                            let (value, presence) = b.rx.lane(elids[e]);
                            for o in 0..rounds {
                                if presence[o / 64] >> (o % 64) & 1 == 1 {
                                    received[e][o] = Some(value[o / 64] >> (o % 64) & 1 == 1);
                                }
                            }
                        }
                    }
                    WireMode::Reference => {
                        for o in 0..rounds {
                            fr.tx.clear_all();
                            for e in 0..m {
                                let bit = lanes[e * lane_words + o / 64] >> (o % 64) & 1 == 1;
                                fr.tx.set(elids[e], bit);
                            }
                            net.step_into(&fr.tx, None, &mut fr.rx);
                            for e in 0..m {
                                if let Some(bit) = fr.rx.get(elids[e]) {
                                    received[e][o] = Some(bit);
                                }
                            }
                        }
                    }
                }
                // Decode at the receivers, flattening straight to the
                // dense LinkId index (links are edge-major: lid(u → v) =
                // 2e for u < v, 2e + 1 the other way).
                let mut by_link: Vec<Arc<dyn SeedSource>> =
                    Vec::with_capacity(self.statics.graph.link_count());
                for (e, _, _) in self.statics.graph.edges() {
                    let (x, y) = true_seeds[e];
                    by_link.push(self.expand_seed(*expansion, x, y));
                    let (dx, dy) = decode_seed(&code, &received[e], reps);
                    by_link.push(self.expand_seed(*expansion, dx, dy));
                }
                Sources { by_link }
            }
        }
    }

    fn expand_seed(&self, expansion: SeedExpansion, x: u64, y: u64) -> Arc<dyn SeedSource> {
        match expansion {
            SeedExpansion::Prg => {
                let mut s = x;
                Arc::new(CrsSource::new(splitmix64(&mut s) ^ y.rotate_left(17)))
            }
            SeedExpansion::Aghp => {
                let m = self.statics.graph.edge_count() as u64;
                Arc::new(DeltaBiasedSource::new(
                    x,
                    y,
                    m,
                    SEED_SLOTS,
                    self.region_words() as u64,
                ))
            }
        }
    }

    /// Seed words reserved per (iteration, edge, slot) label in δ-biased
    /// mode. The binding constraint is the persistent sketch: τ_sketch
    /// interleaved words per word of the longest possible transcript. The
    /// per-iteration labels (`h(k)`: τ words, outer hashes: 2τ words per
    /// evaluation) fit with room to spare.
    fn region_words(&self) -> usize {
        let max_bits = (self.iterations + 2) * (32 + 2 * self.max_link_syms);
        SKETCH_BITS as usize * (max_bits / 64 + 2)
    }

    // ------------------------------------------------------------------
    // Phase 1: meeting points
    // ------------------------------------------------------------------
    #[allow(clippy::too_many_arguments)]
    fn meeting_points_phase(
        &self,
        net: &mut Network,
        parties: &mut [SimParty],
        lanes: &mut [LinkLane],
        sources: &Sources,
        iter: u64,
        pool: &crossbeam::WorkerPool,
        inst: &mut Instrumentation,
        fr: &mut Frames,
        batches: &mut Option<Batches>,
        memory: &Cell<u64>,
        opts: RunOptions,
    ) {
        let tau = self.cfg.hash_bits;
        let batched = self.cfg.wire == WireMode::Batched;
        // Prepare outgoing messages (O(τ) per link: sketch + outer hash).
        // This is the phase's hash-heavy hot loop; each lane is
        // self-contained (its own transcript hasher and a pure per-label
        // seed source), so the lane vector shards across worker threads by
        // contiguous LinkId range. The outcome is byte-identical to the
        // serial order because no lane reads another lane's state.
        let by_link = &sources.by_link[..];
        pool.run_chunks(lanes, 16, |start, shard| {
            for (off, lane) in shard.iter_mut().enumerate() {
                let lid = start + off;
                let src = &by_link[lid];
                let e = (lid / 2) as u64;
                let lbl = |slot| SeedLabel {
                    iteration: iter,
                    channel: e,
                    slot,
                };
                lane.mp_out = lane.mp.prepare(
                    &mut lane.t,
                    tau,
                    &mut *src.stream(lbl(SLOT_K)),
                    &mut *src.stream(lbl(SLOT_OUTER)),
                );
                if !batched {
                    lane.mp_in.clear();
                    lane.mp_in.resize(4 * tau as usize, None);
                }
            }
        });
        // The 4τ wire rounds. Batched: every link's whole message is
        // marshalled into its lane once and the engine applies the
        // adversary to all rounds in a single pass — no per-round fill
        // loop over n·Δ link slots. (Every directed link speaks, so every
        // lane is overwritten; no clear needed.)
        if batched {
            let nbits = 4 * tau as usize;
            let b = batches_for(batches, self.statics.graph.link_count(), nbits);
            let mut words = [0u64; 4];
            for (lid, lane) in lanes.iter().enumerate() {
                let n = lane.mp_out.to_words(tau, &mut words);
                b.tx.set_bits(lid, &words, n);
            }
            self.step_batch(
                net,
                parties,
                lanes,
                sources,
                b,
                StepCtx::plain(iter, memory),
                opts,
            );
            // Process straight off the received lanes.
            let rx = &b.rx;
            for p in parties.iter_mut() {
                for ni in 0..p.neighbors.len() {
                    let lane = &mut lanes[p.lid_out[ni]];
                    let ours = lane.mp_out;
                    let (value, presence) = rx.lane(p.lid_in[ni]);
                    let theirs = RecvMpMessage::from_words(value, presence, tau);
                    let decision = lane.mp.process(&ours, &theirs, &mut lane.t);
                    inst.mp_resets += u64::from(decision.reset);
                    if let Some(g) = decision.truncated_to {
                        inst.mp_truncations += 1;
                        p.prune_snapshots(g);
                    }
                }
            }
        } else {
            for o in 0..4 * tau as usize {
                fr.tx.clear_all();
                for (lid, lane) in lanes.iter().enumerate() {
                    fr.tx.set(lid, lane.mp_out.wire_bit(o, tau));
                }
                self.step(
                    net,
                    parties,
                    lanes,
                    sources,
                    fr,
                    StepCtx::plain(iter, memory),
                    opts,
                );
                // `lid ^ 1` is the reverse direction: a lane's reception
                // buffer fills from the paired incoming link.
                for (lid, lane) in lanes.iter_mut().enumerate() {
                    if let Some(bit) = fr.rx.get(lid ^ 1) {
                        lane.mp_in[o] = Some(bit);
                    }
                }
            }
            // Process.
            for p in parties.iter_mut() {
                for ni in 0..p.neighbors.len() {
                    let lane = &mut lanes[p.lid_out[ni]];
                    let ours = lane.mp_out;
                    let theirs = RecvMpMessage::from_bits(&lane.mp_in, tau);
                    let decision = lane.mp.process(&ours, &theirs, &mut lane.t);
                    inst.mp_resets += u64::from(decision.reset);
                    if let Some(g) = decision.truncated_to {
                        inst.mp_truncations += 1;
                        p.prune_snapshots(g);
                    }
                }
            }
        }
        // Instrumentation: true full-hash collisions (global knowledge).
        for (e, _, _) in self.statics.graph.edges() {
            let lu = &lanes[2 * e];
            let lv = &lanes[2 * e + 1];
            if lu.mp_out.h_full == lv.mp_out.h_full && !lu.t.same_as(&lv.t) {
                inst.hash_collisions += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: flag passing
    // ------------------------------------------------------------------
    #[allow(clippy::too_many_arguments)]
    fn flag_passing_phase(
        &self,
        net: &mut Network,
        parties: &mut [SimParty],
        lanes: &[LinkLane],
        sources: &Sources,
        inst: &mut Instrumentation,
        fr: &mut Frames,
        memory: &Cell<u64>,
        opts: RunOptions,
    ) {
        // Compute own status (Algorithm 1 lines 6–13).
        for p in parties.iter_mut() {
            let min_chunk = p
                .lid_out
                .iter()
                .map(|&l| lanes[l].t.chunks())
                .min()
                .unwrap_or(0);
            let mp_busy = p
                .lid_out
                .iter()
                .any(|&l| lanes[l].mp.status == LinkStatus::MeetingPoints);
            let uneven = p.lid_out.iter().any(|&l| lanes[l].t.chunks() > min_chunk);
            p.status = !mp_busy && !uneven;
            p.fp_agg = p.status;
            p.net_correct = p.status; // provisional; refined below
        }
        // The up/down waves are data-dependent round to round (a parent's
        // send folds bits received in earlier rounds), so the phase steps
        // bit-serially in both wire modes — but each round touches only
        // its precompiled schedule entries instead of scanning all n
        // parties ([`FlagSchedule`]).
        let root = self.statics.tree.root();
        for o in 0..self.statics.plan.rounds() {
            fr.tx.clear_all();
            for &(u, lid) in &self.statics.flag_sched.up_sends[o] {
                fr.tx.set(lid, parties[u].fp_agg);
            }
            for &(u, lid) in &self.statics.flag_sched.down_sends[o] {
                let flag = if u == root {
                    parties[u].fp_agg
                } else {
                    parties[u].net_correct
                };
                fr.tx.set(lid, flag);
            }
            self.step(
                net,
                parties,
                lanes,
                sources,
                fr,
                StepCtx::plain(0, memory),
                opts,
            );
            for &(u, lid) in &self.statics.flag_sched.up_recvs[o] {
                // Deleted flag reads as stop (false).
                let bit = fr.rx.get(lid).unwrap_or(false);
                parties[u].fp_agg &= bit;
            }
            for &(u, lid) in &self.statics.flag_sched.down_recvs[o] {
                let bit = fr.rx.get(lid).unwrap_or(false);
                parties[u].net_correct = bit && parties[u].status;
            }
        }
        // The root's final flag is its own aggregate.
        parties[root].net_correct = parties[root].fp_agg && parties[root].status;
        if self.cfg.disable_flag_passing {
            // Ablation (F4): no global coordination — every party acts on
            // its local status alone.
            for p in parties.iter_mut() {
                p.net_correct = p.status;
            }
        }
        inst.stalled_iterations += u64::from(parties.iter().any(|p| !p.net_correct));
    }

    // ------------------------------------------------------------------
    // Phase 3: simulation
    // ------------------------------------------------------------------
    #[allow(clippy::too_many_arguments)]
    fn simulation_phase(
        &self,
        net: &mut Network,
        parties: &mut [SimParty],
        lanes: &mut [LinkLane],
        sources: &Sources,
        iter: u64,
        pool: &crossbeam::WorkerPool,
        fr: &mut Frames,
        arena: &mut Arena,
        memory: &Cell<u64>,
        opts: RunOptions,
    ) {
        // ⊥ round: non-participants announce themselves.
        fr.tx.clear_all();
        for p in parties.iter() {
            if !p.net_correct {
                for &lid in &p.lid_out {
                    fr.tx.set(lid, true);
                }
            }
        }
        self.step(
            net,
            parties,
            lanes,
            sources,
            fr,
            StepCtx::plain(iter, memory),
            opts,
        );
        for u in 0..parties.len() {
            let p = &mut parties[u];
            p.sim_active = p.net_correct;
            p.excluded.clear_all();
            p.work = None;
            for &lid in &p.lid_out {
                lanes[lid].inprog_active = false;
            }
            if !p.sim_active {
                continue;
            }
            for ni in 0..p.neighbors.len() {
                if fr.rx.get(p.lid_in[ni]).is_some() {
                    p.excluded.set(ni);
                }
            }
            // All transcripts have equal length here (status == 1).
            let c = p
                .lid_out
                .iter()
                .map(|&l| lanes[l].t.chunks())
                .min()
                .unwrap_or(0);
            p.sim_chunk = c;
            assert!(
                p.snapshots.len() > c,
                "snapshot chain broken: len {} need {}",
                p.snapshots.len(),
                c + 1
            );
            // Copy-on-write: the working state deep-clones only at this
            // chunk's first payload bit (never, for padding-only chunks).
            p.work = Some(p.snapshots[c].clone());
            p.pslot_cursor = 0;
            // Per-neighbor symbol positions come from the chunk shape's
            // precompiled [`protocol::PartyPlan`] — the per-iteration
            // layout walk this loop used to do.
            let plan = self.statics.proto.party_plan(c, u);
            for ni in 0..p.neighbors.len() {
                if plan.pair_syms[ni] > 0 && !p.excluded.contains(ni) {
                    let lane = &mut lanes[p.lid_out[ni]];
                    lane.inprog_active = true;
                    lane.sim_chunk = c as u64;
                    lane.inprog.clear();
                    lane.inprog.resize(plan.pair_syms[ni], Sym::Star);
                    // Stock the lane-local pool (serially) so the parallel
                    // commit below never touches the shared arena.
                    if lane.pool.is_empty() {
                        if let Some(v) = arena.syms.pop() {
                            lane.pool.push(v);
                        }
                    }
                }
            }
        }
        // Chunk rounds.
        let max_rounds = self.statics.proto.max_rounds_per_chunk();
        for jr in 0..max_rounds {
            fr.tx.clear_all();
            for p in parties.iter_mut() {
                if !p.sim_active {
                    continue;
                }
                let pslots = self.statics.proto.party_slots_cached(p.sim_chunk, p.node);
                let plan = self.statics.proto.party_plan(p.sim_chunk, p.node);
                while p.pslot_cursor < pslots.len() {
                    let slot = pslots[p.pslot_cursor];
                    if slot.round_in_chunk != jr || !slot.is_send {
                        break;
                    }
                    p.pslot_cursor += 1;
                    let bit = p.work.as_mut().unwrap().send(&slot);
                    let ni = self.statics.graph.link_src_nbr(slot.lid);
                    if !p.excluded.contains(ni) {
                        fr.tx.set(slot.lid, bit);
                        // Own sent bits are part of T_{u,v}.
                        let idx = plan.pos_out_idx(ni, jr);
                        lanes[slot.lid].inprog[idx] = Sym::from_bit(bit);
                    }
                }
            }
            self.step(
                net,
                parties,
                lanes,
                sources,
                fr,
                StepCtx::chunk(iter, jr, memory),
                opts,
            );
            for p in parties.iter_mut() {
                if !p.sim_active {
                    continue;
                }
                let pslots = self.statics.proto.party_slots_cached(p.sim_chunk, p.node);
                let plan = self.statics.proto.party_plan(p.sim_chunk, p.node);
                while p.pslot_cursor < pslots.len() {
                    let slot = pslots[p.pslot_cursor];
                    if slot.round_in_chunk != jr {
                        break;
                    }
                    debug_assert!(!slot.is_send);
                    p.pslot_cursor += 1;
                    let ni = self.statics.graph.link_dst_nbr(slot.lid);
                    if p.excluded.contains(ni) {
                        // Not simulating with that neighbor: feed the
                        // default, record nothing.
                        p.work.as_mut().unwrap().recv(&slot, None);
                        continue;
                    }
                    let got = fr.rx.get(slot.lid);
                    let idx = plan.pos_in_idx(ni, jr);
                    // The receiver's own copy of the link lives on the
                    // reverse lane (`lid ^ 1`).
                    lanes[slot.lid ^ 1].inprog[idx] = match got {
                        Some(b) => Sym::from_bit(b),
                        None => Sym::Star,
                    };
                    p.work.as_mut().unwrap().recv(&slot, got);
                }
            }
        }
        // Commit. The transcript appends (which feed each lane's
        // incremental hasher — the expensive part on large topologies)
        // shard across threads by LinkId range; each lane draws its
        // recycled symbol buffer from its own pool, never the shared
        // arena, so shards stay disjoint and the result is byte-identical
        // to the serial order.
        pool.run_chunks(lanes, 16, |_, shard| {
            for lane in shard.iter_mut() {
                if !lane.inprog_active {
                    continue;
                }
                lane.inprog_active = false;
                let mut syms = lane.pool.pop().unwrap_or_default();
                syms.clear();
                syms.extend_from_slice(&lane.inprog);
                lane.t.push(ChunkRecord {
                    chunk: lane.sim_chunk,
                    syms,
                });
            }
        });
        for p in parties.iter_mut() {
            if !p.sim_active {
                continue;
            }
            let work = p.work.take().unwrap();
            p.snapshots.truncate(p.sim_chunk + 1);
            p.snapshots.push(work);
        }
    }

    // ------------------------------------------------------------------
    // Phase 4: rewind
    // ------------------------------------------------------------------
    #[allow(clippy::too_many_arguments)]
    fn rewind_phase(
        &self,
        net: &mut Network,
        parties: &mut [SimParty],
        lanes: &mut [LinkLane],
        sources: &Sources,
        inst: &mut Instrumentation,
        fr: &mut Frames,
        batches: &mut Option<Batches>,
        rw: &mut RewindScratch,
        memory: &Cell<u64>,
        opts: RunOptions,
    ) {
        for p in parties.iter_mut() {
            p.already_rewound.clear_all();
        }
        if self.cfg.disable_rewind {
            // Ablation (F4): the phase's rounds elapse silently — nobody
            // sends and receptions are ignored, so the rounds are
            // independent and the batched mode pushes them through one
            // engine call.
            if self.cfg.wire == WireMode::Batched {
                let b = batches_for(
                    batches,
                    self.statics.graph.link_count(),
                    self.cfg.rewind_rounds,
                );
                b.tx.clear_all();
                self.step_batch(
                    net,
                    parties,
                    lanes,
                    sources,
                    b,
                    StepCtx::plain(0, memory),
                    opts,
                );
            } else {
                for _ in 0..self.cfg.rewind_rounds {
                    fr.tx.clear_all();
                    self.step(
                        net,
                        parties,
                        lanes,
                        sources,
                        fr,
                        StepCtx::plain(0, memory),
                        opts,
                    );
                }
            }
            return;
        }
        // A party can newly become able to send a rewind bit only after
        // one of its transcripts truncated (its own send or a received
        // request) — nothing else in this phase moves its chunk counts.
        // So each round scans only the parties that truncated last round
        // (`active`), plus everyone once at phase start; receptions are
        // enumerated from the frame's set bits. A round with nothing to
        // rewind and no noise costs O(m/64) instead of O(Σ deg).
        let n = parties.len();
        let RewindScratch {
            active,
            next,
            marked,
        } = rw;
        active.clear();
        active.extend(0..n);
        next.clear();
        marked.clear();
        marked.resize(n, false);
        let mut wave_rounds = 0u64;
        for _ in 0..self.cfg.rewind_rounds {
            fr.tx.clear_all();
            let mut truncated_this_round = false;
            for &u in active.iter() {
                let p = &mut parties[u];
                let min_chunk = p
                    .lid_out
                    .iter()
                    .map(|&l| lanes[l].t.chunks())
                    .min()
                    .unwrap_or(0);
                for ni in 0..p.neighbors.len() {
                    let lane = &mut lanes[p.lid_out[ni]];
                    let ok = lane.mp.status != LinkStatus::MeetingPoints
                        && !p.already_rewound.contains(ni)
                        && lane.t.chunks() > min_chunk;
                    if ok {
                        fr.tx.set(p.lid_out[ni], true);
                        let new_len = lane.t.chunks() - 1;
                        lane.t.truncate_into(new_len, &mut lane.pool);
                        p.prune_snapshots(new_len);
                        p.already_rewound.set(ni);
                        inst.rewind_truncations += 1;
                        truncated_this_round = true;
                        if !marked[u] {
                            marked[u] = true;
                            next.push(u);
                        }
                    }
                }
            }
            self.step(
                net,
                parties,
                lanes,
                sources,
                fr,
                StepCtx::rewind(active.len(), memory),
                opts,
            );
            for (lid, _) in fr.rx.iter_set() {
                let u = self.statics.graph.link(lid).to;
                let ni = self.statics.graph.link_dst_nbr(lid);
                let p = &mut parties[u];
                let lane = &mut lanes[lid ^ 1];
                let ok = lane.mp.status != LinkStatus::MeetingPoints
                    && !p.already_rewound.contains(ni)
                    && lane.t.chunks() > 0;
                if ok {
                    let new_len = lane.t.chunks() - 1;
                    lane.t.truncate_into(new_len, &mut lane.pool);
                    p.prune_snapshots(new_len);
                    p.already_rewound.set(ni);
                    inst.rewind_truncations += 1;
                    truncated_this_round = true;
                    if !marked[u] {
                        marked[u] = true;
                        next.push(u);
                    }
                }
            }
            wave_rounds += u64::from(truncated_this_round);
            std::mem::swap(active, next);
            next.clear();
            for &u in active.iter() {
                marked[u] = false;
            }
        }
        inst.rewind_wave_depth = inst.rewind_wave_depth.max(wave_rounds);
    }

    /// Whether this run hands the adversary a live view at all: the run
    /// options must expose it *and* the scheme's adversary class must not
    /// be [`AdversaryClass::Oblivious`].
    fn view_exposed(&self, opts: RunOptions) -> bool {
        opts.expose_view && self.cfg.adversary_class != AdversaryClass::Oblivious
    }

    /// One engine round over the scratch frames (`fr.tx` → `fr.rx`),
    /// wiring up the adaptive view when exposed.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        net: &mut Network,
        parties: &[SimParty],
        lanes: &[LinkLane],
        sources: &Sources,
        fr: &mut Frames,
        ctx: StepCtx,
        opts: RunOptions,
    ) {
        let Frames { tx, rx } = fr;
        if self.view_exposed(opts) {
            let view = OracleView {
                sim: self,
                parties,
                lanes,
                sources,
                ctx,
            };
            net.step_into(tx, Some(&view), rx);
        } else {
            net.step_into(tx, None, rx);
        }
    }

    /// One batched engine pass over `b.tx` → `b.rx` (the multi-round
    /// analogue of [`Simulation::step`]), wiring up the adaptive view when
    /// exposed. Batches never overlap chunk-simulation rounds, so the
    /// oracle's `chunk_round` is `None`.
    #[allow(clippy::too_many_arguments)]
    fn step_batch(
        &self,
        net: &mut Network,
        parties: &[SimParty],
        lanes: &[LinkLane],
        sources: &Sources,
        b: &mut Batches,
        ctx: StepCtx,
        opts: RunOptions,
    ) {
        let Batches { tx, rx } = b;
        if self.view_exposed(opts) {
            let view = OracleView {
                sim: self,
                parties,
                lanes,
                sources,
                ctx,
            };
            net.step_rounds_into(tx, Some(&view), rx);
        } else {
            net.step_rounds_into(tx, None, rx);
        }
    }

    fn sample(&self, lanes: &[LinkLane], net: &Network, iter: u64, inst: &mut Instrumentation) {
        let mut g_star = usize::MAX;
        let mut h_star = 0usize;
        let mut sum_g = 0usize;
        let mut sum_b = 0usize;
        for (e, _, _) in self.statics.graph.edges() {
            let tu = &lanes[2 * e].t;
            let tv = &lanes[2 * e + 1].t;
            let g = tu.common_prefix_chunks(tv);
            let h = tu.chunks().max(tv.chunks());
            g_star = g_star.min(g);
            h_star = h_star.max(h);
            sum_g += g;
            sum_b += h - g;
        }
        if g_star == usize::MAX {
            g_star = 0;
        }
        let stats = net.stats();
        let ehc = stats.corruptions + inst.hash_collisions;
        inst.samples.push(IterationSample {
            iteration: iter,
            g_star,
            h_star,
            b_star: h_star - g_star,
            sum_g,
            sum_b,
            ehc,
            cc: stats.cc,
            corruptions: stats.corruptions,
            potential_proxy: Instrumentation::proxy(
                self.cfg.k_param,
                self.statics.graph.edge_count(),
                sum_g,
                sum_b,
                h_star - g_star,
                ehc,
            ),
        });
    }

    fn evaluate(
        &self,
        parties: &[SimParty],
        lanes: &[LinkLane],
        net: &Network,
        mut inst: Instrumentation,
    ) -> SimOutcome {
        let real = self.statics.proto.real_chunks();
        let mut transcripts_ok = true;
        let mut g_star = usize::MAX;
        let mut h_star = 0usize;
        for (e, _, _) in self.statics.graph.edges() {
            let reference = &self.reference.edge_transcripts[e];
            let tu = &lanes[2 * e].t;
            let tv = &lanes[2 * e + 1].t;
            transcripts_ok &= tu.matches_reference(reference, real);
            transcripts_ok &= tv.matches_reference(reference, real);
            g_star = g_star.min(tu.common_prefix_chunks(tv));
            h_star = h_star.max(tu.chunks().max(tv.chunks()));
        }
        if g_star == usize::MAX {
            g_star = 0;
        }
        let mut outputs_ok = true;
        for p in parties {
            if p.snapshots.len() > real {
                outputs_ok &= p.snapshots[real].output() == self.reference.outputs[p.node];
            } else {
                outputs_ok = false;
            }
        }
        let stats = net.stats();
        let payload_cc = self.workload.schedule().cc_bits() as u64;
        let faults = net.fault_stats();
        inst.links_downed = faults.links_downed;
        inst.crash_rounds = faults.crash_rounds;
        inst.masked_symbols = faults.masked_symbols;
        let success = transcripts_ok && outputs_ok;
        let faulted = faults.links_downed > 0 || faults.crash_rounds > 0;
        let verdict = if success {
            Verdict::DecodedCorrect
        } else {
            Verdict::Degraded {
                reason: if faulted {
                    DegradeReason::FaultChurn
                } else {
                    DegradeReason::NoiseOverwhelmed
                },
            }
        };
        inst.degraded_reason = verdict.code();
        SimOutcome {
            success,
            transcripts_ok,
            outputs_ok,
            stats,
            payload_cc,
            padded_cc: (real * self.statics.proto.chunk_bits()) as u64,
            blowup: stats.cc as f64 / payload_cc.max(1) as f64,
            iterations: self.iterations,
            g_star,
            b_star: h_star - g_star,
            instrumentation: inst,
            verdict,
        }
    }
}

/// Per-run seed sources, flattened to the dense [`LinkId`] index:
/// `by_link[lid(u → v)]` is the source party `u` uses for that link (the
/// two directions differ in `Exchanged` mode, where the receiver decoded
/// its copy off the noisy wire).
struct Sources {
    by_link: Vec<Arc<dyn SeedSource>>,
}

/// The run's two persistent scratch wire buffers: honest sends (`tx`) and
/// receptions (`rx`). Allocated once per scratch and reused by every round
/// of every phase of every run.
struct Frames {
    tx: RoundFrame,
    rx: RoundFrame,
}

/// A dense bitset over a party's neighbor indices.
#[derive(Clone, Debug, Default)]
struct NbrSet {
    words: Vec<u64>,
}

impl NbrSet {
    fn with_capacity(n: usize) -> Self {
        NbrSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    fn clear_all(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }
}

/// Per-directed-link live state, dense over [`LinkId`].
///
/// `lanes[lid(u → v)]` holds party `u`'s endpoint state for its link to
/// `v`: the transcript copy, the meeting-points counter machine, the
/// outgoing/incoming message buffers and the in-progress chunk symbols.
/// Pulling this out of [`SimParty`] makes the per-link phases (hash
/// preparation, chunk commits) shardable: a worker thread owns a
/// contiguous `LinkId` range and touches nothing outside its shard, so
/// [`crossbeam::WorkerPool::run_chunks`] over the lane vector is
/// deterministic.
struct LinkLane {
    t: LinkTranscript,
    mp: MpState,
    mp_out: MpMessage,
    /// Per-round reception buffer ([`WireMode::Reference`] only).
    mp_in: Vec<Option<bool>>,
    /// Reused per-chunk symbol buffer.
    inprog: Vec<Sym>,
    /// Whether `inprog` holds symbols to commit this iteration.
    inprog_active: bool,
    /// The chunk `inprog` belongs to (owner party's `sim_chunk`).
    sim_chunk: u64,
    /// Lane-local `Vec<Sym>` pool so the parallel commit never touches
    /// the shared arena; refilled from the arena on (serial) activation
    /// and by this lane's own rewind truncations.
    pool: Vec<Vec<Sym>>,
}

impl LinkLane {
    fn new() -> Self {
        LinkLane {
            t: LinkTranscript::new(),
            mp: MpState::new(),
            mp_out: MpMessage::default(),
            mp_in: Vec::new(),
            inprog: Vec::new(),
            inprog_active: false,
            sim_chunk: 0,
            pool: Vec::new(),
        }
    }
}

/// Per-party live state of the simulation — flat, neighbor-indexed.
///
/// Per-link endpoint state lives in the dense [`LinkLane`] vector
/// (`lanes[lid_out[ni]]`); the party keeps only the genuinely per-party
/// pieces (Π′ snapshots, flags, slot cursor) plus the precomputed link
/// ids so the phase loops never search the adjacency. Per-neighbor flags
/// are [`NbrSet`] bitsets.
struct SimParty {
    node: NodeId,
    neighbors: Vec<NodeId>,
    /// `lid_out[ni]` = LinkId of `node → neighbors[ni]`.
    lid_out: Vec<LinkId>,
    /// `lid_in[ni]` = LinkId of `neighbors[ni] → node`.
    lid_in: Vec<LinkId>,
    /// `snapshots[i]` = Π′-state after simulating `i` chunks.
    snapshots: Vec<ChunkedParty>,
    status: bool,
    fp_agg: bool,
    net_correct: bool,
    sim_active: bool,
    sim_chunk: usize,
    excluded: NbrSet,
    work: Option<ChunkedParty>,
    /// Progress through the chunk's precompiled
    /// [`protocol::ChunkedProtocol::party_slots_cached`] table (the slot
    /// data itself is borrowed from the protocol, not copied per
    /// iteration; positions come from [`protocol::PartyPlan`]).
    pslot_cursor: usize,
    already_rewound: NbrSet,
}

impl SimParty {
    /// Drops Π′-state snapshots invalidated by truncating any link to
    /// `new_len` chunks.
    fn prune_snapshots(&mut self, new_len: usize) {
        if self.snapshots.len() > new_len + 1 {
            self.snapshots.truncate(new_len + 1);
        }
    }
}

/// Decodes an exchanged seed from possibly corrupted repetitions.
fn decode_seed(code: &BinaryCode, received: &[Option<bool>], reps: usize) -> (u64, u64) {
    let block = received.len() / reps;
    let mut votes: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for r in 0..reps {
        let slice = &received[r * block..(r + 1) * block];
        let word = BinaryWord {
            bits: slice.iter().map(|b| b.unwrap_or(false)).collect(),
            erasures: slice
                .iter()
                .enumerate()
                .filter(|(_, b)| b.is_none())
                .map(|(i, _)| i)
                .collect(),
        };
        if let Ok(bits) = code.decode(&word) {
            if bits.len() >= 128 {
                let mut x = 0u64;
                let mut y = 0u64;
                for j in 0..64 {
                    x |= u64::from(bits[j]) << j;
                    y |= u64::from(bits[64 + j]) << j;
                }
                *votes.entry((x, y)).or_insert(0) += 1;
            }
        }
    }
    if let Some((&seed, _)) = votes.iter().max_by_key(|(_, &c)| c) {
        return seed;
    }
    // All repetitions destroyed: deterministic garbage fallback.
    let mut acc = 0xdead_beef_0bad_cafe_u64;
    for (i, b) in received.iter().enumerate() {
        if b.unwrap_or(false) {
            acc ^= splitmix64(&mut { (i as u64) ^ acc });
            acc = acc.rotate_left(9);
        }
    }
    let mut s = acc;
    (splitmix64(&mut s), splitmix64(&mut s))
}

/// Bound on symbols any single chunk places on any single link.
fn max_link_syms(proto: &ChunkedProtocol, graph: &Graph) -> usize {
    let mut best = 0usize;
    for c in 0..=proto.real_chunks() {
        let mut counts: BTreeMap<EdgeId, usize> = BTreeMap::new();
        for slot in proto.layout(c).rounds.iter().flatten() {
            let e = graph.edge_between(slot.link.from, slot.link.to).unwrap();
            *counts.entry(e).or_insert(0) += 1;
        }
        best = best.max(counts.values().copied().max().unwrap_or(0));
    }
    best
}

/// The per-step slice of run state the live view carries beyond the
/// party array: which iteration/chunk round is executing (for the §6.1
/// oracle), the rewind wave's active-set size (rewind rounds only), and
/// the run-owned adversary memory slot.
#[derive(Clone, Copy)]
struct StepCtx<'a> {
    iteration: u64,
    chunk_round: Option<usize>,
    rewind_active: Option<usize>,
    memory: &'a Cell<u64>,
}

impl<'a> StepCtx<'a> {
    /// A non-chunk, non-rewind round of iteration `iteration`.
    fn plain(iteration: u64, memory: &'a Cell<u64>) -> Self {
        StepCtx {
            iteration,
            chunk_round: None,
            rewind_active: None,
            memory,
        }
    }

    /// Chunk-simulation round `jr` of iteration `iteration`.
    fn chunk(iteration: u64, jr: usize, memory: &'a Cell<u64>) -> Self {
        StepCtx {
            iteration,
            chunk_round: Some(jr),
            rewind_active: None,
            memory,
        }
    }

    /// A rewind-wave round with `active` parties still able to send.
    fn rewind(active: usize, memory: &'a Cell<u64>) -> Self {
        StepCtx {
            iteration: 0,
            chunk_round: None,
            rewind_active: Some(active),
            memory,
        }
    }
}

/// The live view handed to non-oblivious adversaries: global state plus
/// the §6.1 seed-aware collision oracle and, when the scheme's
/// [`AdversaryClass`] grants it, the phase-aware surface (phase position,
/// meeting-point/flag/rewind state, cross-iteration memory).
struct OracleView<'a, 'w> {
    sim: &'a Simulation<'w>,
    parties: &'a [SimParty],
    lanes: &'a [LinkLane],
    sources: &'a Sources,
    ctx: StepCtx<'a>,
}

impl OracleView<'_, '_> {
    /// Whether the phase-aware surface is granted.
    fn phase_visible(&self) -> bool {
        self.sim.cfg.adversary_class == AdversaryClass::PhaseAware
    }

    /// One endpoint's [`MpSideView`] (the lane of its outgoing link).
    fn mp_side(&self, lid: LinkId) -> MpSideView {
        let lane = &self.lanes[lid];
        MpSideView {
            k: lane.mp.k,
            e: lane.mp.e,
            in_meeting_points: lane.mp.status == LinkStatus::MeetingPoints,
            mpc1: lane.mp_out.mpc1,
            mpc2: lane.mp_out.mpc2,
            chunks: lane.t.chunks(),
        }
    }
}

impl AdaptiveView for OracleView<'_, '_> {
    fn diverged(&self, edge: EdgeId) -> bool {
        !self.lanes[2 * edge].t.same_as(&self.lanes[2 * edge + 1].t)
    }

    fn transcript_chunks(&self, edge: EdgeId) -> usize {
        self.lanes[2 * edge].t.chunks()
    }

    fn collision_corruption(&self, edge: EdgeId, sends: Sends<'_>) -> Option<Corruption> {
        // Seed visibility: Algorithm C's CRS is hidden from the adversary.
        if let RandomnessMode::Crs {
            adversary_knows_seeds: false,
            ..
        } = &self.sim.cfg.randomness
        {
            return None;
        }
        let jr = self.ctx.chunk_round?;
        if self.ctx.iteration + 1 >= self.sim.iterations as u64 {
            return None;
        }
        let (u, v) = self.sim.statics.graph.endpoints(edge);
        let (pu, pv) = (&self.parties[u], &self.parties[v]);
        let (lu, lv) = (&self.lanes[2 * edge], &self.lanes[2 * edge + 1]);
        let niu = self.sim.statics.graph.link_src_nbr(2 * edge);
        let niv = self.sim.statics.graph.link_dst_nbr(2 * edge);
        // Both endpoints must be cleanly simulating the same chunk with
        // synchronized meeting-point counters for the prediction to hold.
        if !pu.sim_active
            || !pv.sim_active
            || pu.excluded.contains(niu)
            || pv.excluded.contains(niv)
            || pu.sim_chunk != pv.sim_chunk
            || lu.mp.k != lv.mp.k
            || !lu.t.same_as(&lv.t)
        {
            return None;
        }
        let c = pu.sim_chunk;
        let tau = self.sim.cfg.hash_bits;
        // Candidate corruptions: this round's sends on this edge, padding
        // slots only (their content never feeds Π, so the damage is
        // exactly a 2-bit transcript delta).
        let layout = self.sim.statics.proto.layout(c);
        // Chunks shorter than the phase's reserved round count (e.g. the
        // dummy heartbeat) have no slots in the trailing rounds.
        let round_slots = layout.rounds.get(jr)?;
        for slot in round_slots {
            let on_edge = (slot.link.from == u && slot.link.to == v)
                || (slot.link.from == v && slot.link.to == u);
            if !on_edge || slot.kind == SlotKind::Payload {
                continue;
            }
            let Some(honest) = sends.get(slot.lid) else {
                continue;
            };
            let receiver = &self.parties[slot.link.to];
            let rni = self.sim.statics.graph.link_dst_nbr(slot.lid);
            let idx = self
                .sim
                .statics
                .proto
                .party_plan(receiver.sim_chunk, slot.link.to)
                .pos_in_idx(rni, jr);
            let t_recv = &self.lanes[slot.lid ^ 1].t;
            let bit_pos = t_recv.bits().len() + 32 + 2 * idx;
            let honest_sym = Sym::from_bit(honest);
            for output in [Some(!honest), None] {
                let observed = match output {
                    Some(b) => Sym::from_bit(b),
                    None => Sym::Star,
                };
                let delta = sym_delta(honest_sym, observed);
                if self.delta_collides(edge, delta, bit_pos, tau) {
                    return Some(Corruption {
                        link: slot.link,
                        output,
                    });
                }
            }
        }
        None
    }

    fn phase_of(&self, round: u64) -> Option<PhasePos> {
        self.phase_visible()
            .then(|| self.sim.geometry.locate(round))
    }

    fn mp_view(&self, edge: EdgeId) -> Option<EdgeMpView> {
        if !self.phase_visible() {
            return None;
        }
        Some(EdgeMpView {
            lo: self.mp_side(2 * edge),
            hi: self.mp_side(2 * edge + 1),
        })
    }

    fn flag_view(&self, node: NodeId) -> Option<FlagView> {
        if !self.phase_visible() {
            return None;
        }
        let p = &self.parties[node];
        Some(FlagView {
            status: p.status,
            aggregate: p.fp_agg,
            net_correct: p.net_correct,
        })
    }

    fn rewind_active(&self) -> Option<usize> {
        if !self.phase_visible() {
            return None;
        }
        self.ctx.rewind_active
    }

    fn memory(&self) -> u64 {
        if !self.phase_visible() {
            return 0;
        }
        self.ctx.memory.get()
    }

    fn set_memory(&self, value: u64) {
        if self.phase_visible() {
            self.ctx.memory.set(value);
        }
    }
}

impl OracleView<'_, '_> {
    /// Does a transcript difference of `delta` (2 bits at `bit_pos`) hash
    /// to zero under the *next* meeting-points full-transcript hash?
    ///
    /// Two-level structure: the 2-bit wire delta XORs a predictable
    /// `SKETCH_BITS`-wide delta into the receiver's persistent sketch
    /// (GF(2)-linearity + the known, iteration-independent sketch seed);
    /// both endpoints commit the same final length, so the outer hashes
    /// collide iff the fresh outer hash of `Δsketch ∥ 0` is zero.
    fn delta_collides(&self, edge: EdgeId, delta: u64, bit_pos: usize, tau: u32) -> bool {
        if delta == 0 {
            return false;
        }
        let src = &self.sources.by_link[2 * edge];
        let (col0, col1) =
            sketch_column_pair(bit_pos, SKETCH_BITS, &mut *src.stream(sketch_label(edge)));
        let mut dsketch = 0u64;
        if delta & 1 != 0 {
            dsketch ^= col0;
        }
        if delta & 2 != 0 {
            dsketch ^= col1;
        }
        let outer_label = SeedLabel {
            iteration: self.ctx.iteration + 1,
            channel: edge as u64,
            slot: SLOT_OUTER,
        };
        transcript_hash(dsketch, 0, tau, &mut *src.stream(outer_label)) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::attacks::{BurstLink, IidNoise, NoNoise, SingleError};
    use protocol::workloads::{Gossip, LinePipeline, TokenRing};

    #[test]
    fn noiseless_simulation_succeeds() {
        let w = TokenRing::new(4, 3, 7);
        let cfg = SchemeConfig::algorithm_a(w.graph(), 42);
        let sim = Simulation::new(&w, cfg, 1);
        let out = sim.run(Box::new(NoNoise), RunOptions::default());
        assert!(out.transcripts_ok, "transcripts diverged: {out:?}");
        assert!(out.outputs_ok, "outputs wrong");
        assert!(out.success);
        assert_eq!(out.stats.corruptions, 0);
    }

    #[test]
    fn noiseless_simulation_gossip_line() {
        let w = Gossip::new(netgraph::topology::line(4), 6, 3);
        let cfg = SchemeConfig::algorithm_a(w.graph(), 9);
        let sim = Simulation::new(&w, cfg, 2);
        let out = sim.run(Box::new(NoNoise), RunOptions::default());
        assert!(out.success, "{out:?}");
    }

    #[test]
    fn single_error_is_repaired() {
        let w = LinePipeline::new(4, 3, 5);
        let cfg = SchemeConfig::algorithm_a(w.graph(), 11);
        let sim = Simulation::new(&w, cfg, 3);
        // One corruption early in the first simulation phase payload.
        let geo = sim.geometry();
        let round = geo.phase_start(0, netsim::PhaseKind::Simulation) + 3;
        let atk = SingleError::new(w.graph(), DirectedLink { from: 0, to: 1 }, round);
        let out = sim.run(Box::new(atk), RunOptions::default());
        assert!(out.success, "single error not recovered: {out:?}");
        assert_eq!(out.stats.corruptions, 1);
    }

    #[test]
    fn burst_is_repaired() {
        let w = Gossip::new(netgraph::topology::ring(4), 6, 1);
        let cfg = SchemeConfig::algorithm_a(w.graph(), 5);
        let sim = Simulation::new(&w, cfg, 4);
        let geo = sim.geometry();
        let start = geo.phase_start(1, netsim::PhaseKind::Simulation);
        let atk = BurstLink::new(w.graph(), DirectedLink { from: 1, to: 2 }, start, 8);
        let out = sim.run(Box::new(atk), RunOptions::default());
        assert!(out.success, "burst not recovered: {out:?}");
        assert!(out.stats.corruptions >= 4);
    }

    #[test]
    fn light_random_noise_is_repaired() {
        let w = Gossip::new(netgraph::topology::ring(5), 8, 2);
        let cfg = SchemeConfig::algorithm_a(w.graph(), 6);
        let sim = Simulation::new(&w, cfg, 5);
        let mut ok = 0;
        for seed in 0..5 {
            let atk = IidNoise::new(w.graph(), 0.001, seed);
            let out = sim.run(Box::new(atk), RunOptions::default());
            ok += usize::from(out.success);
        }
        assert!(ok >= 4, "only {ok}/5 succeeded under light noise");
    }

    #[test]
    fn exchanged_randomness_noiseless() {
        let w = TokenRing::new(4, 3, 8);
        let cfg = SchemeConfig::algorithm_b(w.graph(), 4);
        let sim = Simulation::new(&w, cfg, 6);
        let out = sim.run(Box::new(NoNoise), RunOptions::default());
        assert!(out.success, "{out:?}");
    }

    #[test]
    fn scratch_reuse_is_outcome_identical() {
        let w = TokenRing::new(4, 3, 7);
        let cfg = SchemeConfig::algorithm_a(w.graph(), 42);
        let sim = Simulation::new(&w, cfg, 1);
        let mut scratch = RunScratch::new();
        for seed in 0..3 {
            let fresh = sim.run(
                Box::new(IidNoise::new(w.graph(), 0.001, seed)),
                RunOptions::default(),
            );
            let reused = sim.run_with_scratch(
                Box::new(IidNoise::new(w.graph(), 0.001, seed)),
                RunOptions::default(),
                &mut scratch,
            );
            assert_eq!(fresh.success, reused.success);
            assert_eq!(fresh.stats, reused.stats);
            assert_eq!(fresh.g_star, reused.g_star);
            assert_eq!(fresh.b_star, reused.b_star);
        }
    }

    #[test]
    fn scratch_arena_stops_growing_after_first_run() {
        let w = Gossip::new(netgraph::topology::ring(8), 2, 3);
        let cfg = SchemeConfig::algorithm_a(w.graph(), 5);
        let sim = Simulation::new(&w, cfg, 2);
        let mut scratch = RunScratch::new();
        let run = |scratch: &mut RunScratch| {
            let out = sim.run_with_scratch(Box::new(NoNoise), RunOptions::default(), scratch);
            assert!(out.success, "{out:?}");
        };
        run(&mut scratch);
        let settled = scratch.arena.syms.len();
        assert!(settled > 0, "the run recycles its chunk buffers");
        for _ in 0..5 {
            run(&mut scratch);
            assert_eq!(scratch.arena.syms.len(), settled);
        }
    }

    #[test]
    fn trace_is_monotone_when_noiseless() {
        let w = TokenRing::new(4, 2, 9);
        let cfg = SchemeConfig::algorithm_a(w.graph(), 3);
        let sim = Simulation::new(&w, cfg, 7);
        let out = sim.run(
            Box::new(NoNoise),
            RunOptions {
                record_trace: true,
                ..Default::default()
            },
        );
        assert!(out.success);
        let samples = &out.instrumentation.samples;
        assert_eq!(samples.len(), sim.iterations());
        for w2 in samples.windows(2) {
            assert!(w2[1].g_star >= w2[0].g_star, "G* regressed");
            assert_eq!(w2[1].b_star, 0, "B* nonzero without noise");
        }
        // One chunk per iteration.
        assert_eq!(samples[0].g_star, 1);
    }
}
