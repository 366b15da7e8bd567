//! The round-driven network engine.

use crate::fault::{FaultSchedule, FaultState, FaultStats};
use crate::frame::{FrameBatch, RoundFrame, Sends};
use crate::phase::PhasePos;
use netgraph::{DirectedLink, EdgeId, Graph, LinkId, NodeId};

/// One channel corruption: the link and what the receiver should observe
/// instead (`Some(bit)` substitutes/inserts, `None` deletes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Corruption {
    /// The directed link whose output is overridden.
    pub link: DirectedLink,
    /// The channel output after noise: a bit, or silence.
    pub output: Option<bool>,
}

/// One endpoint's live meeting-points position on an edge, as published
/// through [`AdaptiveView::mp_view`]: the repair-loop counters of
/// Algorithm 2 plus the two meeting-point candidates the *next* exchange
/// will hash.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MpSideView {
    /// Consecutive meeting-points iterations `k` on this side.
    pub k: u64,
    /// Mismatch-evidence counter `E` on this side.
    pub e: u64,
    /// Whether this side currently classifies the link as mid-repair.
    pub in_meeting_points: bool,
    /// Meeting-point candidate `mpc1` (chunks) of the latest exchange.
    pub mpc1: usize,
    /// Meeting-point candidate `mpc2` (chunks) of the latest exchange.
    pub mpc2: usize,
    /// Transcript length (chunks) on this side.
    pub chunks: usize,
}

/// Both endpoints' [`MpSideView`]s of one edge (`lo` = the lower node id).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeMpView {
    /// The lower-id endpoint's side.
    pub lo: MpSideView,
    /// The higher-id endpoint's side.
    pub hi: MpSideView,
}

/// One party's live flag-passing state, as published through
/// [`AdaptiveView::flag_view`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlagView {
    /// The party's own status bit (Algorithm 1 lines 6–13).
    pub status: bool,
    /// Its running up-sweep aggregate.
    pub aggregate: bool,
    /// The network-correct flag it acts on this iteration.
    pub net_correct: bool,
}

/// Live-execution view offered to non-oblivious adversaries.
///
/// The paper's non-oblivious adversary (§6) sees the parties' inputs and
/// the entire transcript so far — in particular the hash seeds that crossed
/// the network — and picks corruptions adaptively. We expose that power as
/// a trait implemented by the coding-scheme runner.
///
/// # Phase-aware surface
///
/// Beyond the per-edge divergence bits and the §6.1 seed-aware oracle,
/// the runner publishes its live phase position and per-phase state:
/// where the current round falls ([`AdaptiveView::phase_of`]), each
/// endpoint's meeting-point candidates and repair counters
/// ([`AdaptiveView::mp_view`]), each party's flag state
/// ([`AdaptiveView::flag_view`]), the size of the active-party set while
/// the rewind wave runs ([`AdaptiveView::rewind_active`]), and a
/// cross-iteration scratch slot ([`AdaptiveView::memory`] /
/// [`AdaptiveView::set_memory`]) so strategies can condition on what they
/// observed in earlier iterations. Every phase-aware method has a
/// withholding default (`None` / zero): the runner only answers when the
/// experiment's `AdversaryClass` grants phase visibility, so the same
/// attack code degrades to idle under a stricter adversary model.
pub trait AdaptiveView {
    /// True if the two endpoints of `edge` currently hold differing
    /// pairwise transcripts.
    fn diverged(&self, edge: EdgeId) -> bool;

    /// Transcript length (in chunks) at the lower endpoint of `edge`.
    fn transcript_chunks(&self, edge: EdgeId) -> usize;

    /// Seed-aware oracle (§6.1 attack): find a corruption of one of this
    /// round's sends on `edge` that will make the *next* meeting-points
    /// full-transcript hash comparison collide, so the error goes
    /// undetected. Returns `None` when no such corruption exists this
    /// round.
    fn collision_corruption(&self, edge: EdgeId, sends: Sends<'_>) -> Option<Corruption>;

    /// Where absolute round `round` falls in the scheme's phase layout
    /// (iteration, phase kind, round-within-phase). `None` when phase
    /// visibility is withheld.
    fn phase_of(&self, round: u64) -> Option<PhasePos> {
        let _ = round;
        None
    }

    /// Both endpoints' live meeting-points state on `edge` (counters and
    /// the candidates the next rollback would target). `None` when phase
    /// visibility is withheld.
    fn mp_view(&self, edge: EdgeId) -> Option<EdgeMpView> {
        let _ = edge;
        None
    }

    /// `node`'s live flag-passing state. `None` when phase visibility is
    /// withheld.
    fn flag_view(&self, node: NodeId) -> Option<FlagView> {
        let _ = node;
        None
    }

    /// While the rewind wave runs: how many parties may still send a
    /// rewind request this round (the wave's active set). `None` outside
    /// the rewind phase or when phase visibility is withheld.
    fn rewind_active(&self) -> Option<usize> {
        None
    }

    /// Reads the cross-iteration memory slot (0 when withheld). The slot
    /// is owned by the run, survives across rounds and iterations, and is
    /// adversary-private: the honest parties never read it.
    fn memory(&self) -> u64 {
        0
    }

    /// Writes the cross-iteration memory slot (no-op when withheld).
    fn set_memory(&self, value: u64) {
        let _ = value;
    }
}

/// An adversary controlling the noise.
///
/// The engine asks [`Adversary::corrupt`] exactly once per round, in
/// round order, on both wire paths: [`Network::step_into`] and every
/// round of a [`Network::step_rounds_into`] batch. That one call is the
/// adversary's whole decision for the round (the paper's per-symbol
/// alter / delete / insert), so its state and private randomness advance
/// identically whichever path the runner takes.
pub trait Adversary {
    /// Corruptions for absolute round `round`. `sends` is the honest
    /// round, indexed by the graph's [`netgraph::LinkId`]s.
    /// `remaining_budget` is the budget left at the start of this round.
    /// `view` is `None` when the runner withholds the live state
    /// (oblivious-only experiments) and `Some` otherwise; oblivious
    /// adversaries must ignore it.
    fn corrupt(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        remaining_budget: u64,
        view: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption>;

    /// Whether this adversary's pattern is independent of the execution
    /// (additive / fixing oblivious adversaries of §2.1).
    fn is_oblivious(&self) -> bool {
        true
    }

    /// Display name for experiment output.
    fn name(&self) -> &'static str;
}

/// Communication and noise accounting of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Rounds elapsed.
    pub rounds: u64,
    /// Honest transmissions (the instance's `CC`).
    pub cc: u64,
    /// Corruptions actually applied.
    pub corruptions: u64,
    /// Corruptions the adversary attempted beyond its budget (dropped).
    pub dropped_corruptions: u64,
}

impl NetStats {
    /// Achieved noise fraction `corruptions / CC` (0 if nothing was sent).
    pub fn noise_fraction(&self) -> f64 {
        if self.cc == 0 {
            0.0
        } else {
            self.corruptions as f64 / self.cc as f64
        }
    }
}

/// The synchronous noisy network.
///
/// The hot path is [`Network::step_into`]: the caller owns two
/// [`RoundFrame`] buffers (sends and receptions) and reuses them every
/// round — no per-round allocation. Phases with independent rounds use
/// [`Network::step_rounds_into`] over a [`FrameBatch`] instead.
///
/// # Examples
///
/// ```
/// use netgraph::{topology, DirectedLink};
/// use netsim::{attacks::NoNoise, Network, RoundFrame};
/// let g = topology::line(3);
/// let id = g.link_id(DirectedLink { from: 0, to: 1 }).unwrap();
/// let mut net = Network::new(g, Box::new(NoNoise), u64::MAX);
/// let mut sends = RoundFrame::for_graph(net.graph());
/// let mut rx = RoundFrame::for_graph(net.graph());
/// sends.set(id, true);
/// net.step_into(&sends, None, &mut rx);
/// assert_eq!(rx.get(id), Some(true));
/// assert_eq!(net.stats().cc, 1);
/// ```
pub struct Network {
    graph: Graph,
    adversary: Box<dyn Adversary>,
    budget: u64,
    stats: NetStats,
    /// Installed wire-fault schedule, if any (see [`FaultSchedule`]).
    faults: Option<FaultState>,
}

impl Network {
    /// Creates a network over `graph` with the given adversary and a hard
    /// cap of `budget` corruptions.
    pub fn new(graph: Graph, adversary: Box<dyn Adversary>, budget: u64) -> Self {
        Network {
            graph,
            adversary,
            budget,
            stats: NetStats::default(),
            faults: None,
        }
    }

    /// Installs a wire-fault schedule (link outages, party crashes).
    /// Masking is applied identically on the bit-serial and the batched
    /// paths, *after* the adversary and budget accounting — see the
    /// [`FaultSchedule`] docs for the exact semantics. Installing
    /// an empty schedule clears faults. Call before the first step:
    /// transitions scheduled at already-elapsed rounds apply on the next
    /// step, which is almost never what a caller wants.
    pub fn install_faults(&mut self, schedule: FaultSchedule) {
        self.faults = if schedule.is_empty() {
            None
        } else {
            Some(FaultState::new(schedule, self.graph.link_count()))
        };
    }

    /// Fault accounting so far (all zero when no schedule is installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map(FaultState::stats)
            .unwrap_or_default()
    }

    /// The topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Accounting so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Corruption budget still available.
    pub fn remaining_budget(&self) -> u64 {
        self.budget - self.stats.corruptions
    }

    /// Consults the adversary for absolute round `round` and admits its
    /// corruptions: non-edges and no-ops (output equal to the honest
    /// symbol) are skipped, corruptions past the budget are counted as
    /// dropped, and each admitted one is charged to the budget and handed
    /// to `apply` as `(link, output)`. The one admission rule of both wire
    /// paths.
    fn corrupt_round(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        view: Option<&dyn AdaptiveView>,
        mut apply: impl FnMut(LinkId, Option<bool>),
    ) {
        let remaining = self.budget - self.stats.corruptions;
        for c in self.adversary.corrupt(round, sends, remaining, view) {
            let Some(id) = self.graph.link_id(c.link) else {
                continue; // corrupting a non-edge is meaningless
            };
            if sends.get(id) == c.output {
                continue; // no change, not a corruption
            }
            if self.stats.corruptions >= self.budget {
                self.stats.dropped_corruptions += 1;
                continue;
            }
            self.stats.corruptions += 1;
            apply(id, c.output);
        }
    }

    /// Executes one synchronous round: applies the adversary to the honest
    /// sends and writes what each receiving endpoint observes into `rx`
    /// (silent link = silence). `sends` and `rx` are caller-owned buffers
    /// sized to the graph; nothing is allocated per round.
    ///
    /// # Panics
    ///
    /// Panics if `sends` or `rx` is not sized to the graph's link count.
    pub fn step_into(
        &mut self,
        sends: &RoundFrame,
        view: Option<&dyn AdaptiveView>,
        rx: &mut RoundFrame,
    ) {
        assert_eq!(
            sends.link_count(),
            self.graph.link_count(),
            "sends frame not sized to graph"
        );
        let round = self.stats.rounds;
        self.stats.rounds += 1;
        self.stats.cc += sends.count_set() as u64;
        rx.copy_from(sends);
        self.corrupt_round(round, Sends::Frame(sends), view, |id, out| match out {
            Some(bit) => rx.set(id, bit),
            None => rx.clear(id),
        });
        if let Some(f) = &mut self.faults {
            f.mask_frame(round, rx);
        }
    }

    /// Executes a whole batch of **independent** synchronous rounds in one
    /// call and writes the receptions into `rx`: one bulk copy of `sends`,
    /// then, round by round, one [`Adversary::corrupt`] consultation
    /// (through a [`Sends::Batch`] view, so nothing is copied out of the
    /// lanes), the budget admission of [`Network::step_into`], and the
    /// round's fault masking.
    ///
    /// Outcome contract: after this call, `rx`, [`Network::stats`] and the
    /// adversary state are byte-identical to `sends.rounds()` sequential
    /// `step_into` calls over the batch's per-round frames.
    ///
    /// Rounds inside a batch must not depend on each other's receptions —
    /// the caller sees `rx` only when every round has already been sent.
    ///
    /// # Panics
    ///
    /// Panics if `sends` or `rx` is not sized to the graph's link count,
    /// or if their round counts differ.
    pub fn step_rounds_into(
        &mut self,
        sends: &FrameBatch,
        view: Option<&dyn AdaptiveView>,
        rx: &mut FrameBatch,
    ) {
        assert_eq!(
            sends.link_count(),
            self.graph.link_count(),
            "sends batch not sized to graph"
        );
        assert_eq!(sends.rounds(), rx.rounds(), "batch round mismatch");
        let first_round = self.stats.rounds;
        self.stats.rounds += sends.rounds() as u64;
        self.stats.cc += sends.count_set() as u64;
        rx.copy_from(sends);
        for r in 0..sends.rounds() {
            let round = first_round + r as u64;
            self.corrupt_round(round, Sends::Batch(sends, r), view, |id, out| match out {
                Some(bit) => rx.set(id, r, bit),
                None => rx.clear(id, r),
            });
            if let Some(f) = &mut self.faults {
                f.mask_batch_round(round, rx, r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::{BurstLink, NoNoise};
    use netgraph::topology;

    fn dl(from: usize, to: usize) -> DirectedLink {
        DirectedLink { from, to }
    }

    #[test]
    fn no_noise_passes_everything() {
        let g = topology::ring(4);
        let mut net = Network::new(g.clone(), Box::new(NoNoise), 0);
        let mut sends = RoundFrame::for_graph(&g);
        sends.set(g.link_id(dl(0, 1)).unwrap(), true);
        sends.set(g.link_id(dl(2, 1)).unwrap(), false);
        let mut rx = RoundFrame::for_graph(&g);
        net.step_into(&sends, None, &mut rx);
        assert_eq!(rx, sends);
        assert_eq!(net.stats().cc, 2);
        assert_eq!(net.stats().corruptions, 0);
    }

    #[test]
    fn step_into_reuses_buffers() {
        let g = topology::ring(4);
        let id01 = g.link_id(dl(0, 1)).unwrap();
        let id21 = g.link_id(dl(2, 1)).unwrap();
        let mut net = Network::new(g.clone(), Box::new(NoNoise), 0);
        let mut sends = RoundFrame::for_graph(&g);
        let mut rx = RoundFrame::for_graph(&g);
        for round in 0..3 {
            sends.clear_all();
            sends.set(id01, round % 2 == 0);
            sends.set(id21, true);
            net.step_into(&sends, None, &mut rx);
            assert_eq!(rx, sends);
        }
        assert_eq!(net.stats().rounds, 3);
        assert_eq!(net.stats().cc, 6);
    }

    #[test]
    fn burst_flips_and_counts() {
        let g = topology::line(3);
        let id = g.link_id(dl(0, 1)).unwrap();
        let atk = BurstLink::new(&g, dl(0, 1), 0, 10);
        let mut net = Network::new(g.clone(), Box::new(atk), 100);
        let mut sends = RoundFrame::for_graph(&g);
        let mut rx = RoundFrame::for_graph(&g);
        sends.set(id, false);
        net.step_into(&sends, None, &mut rx);
        assert_eq!(rx.get(id), Some(true)); // 0 + 1 = 1: substitution
        assert_eq!(net.stats().corruptions, 1);
        // A `true` bit under additive-1 becomes silence (deletion).
        sends.set(id, true);
        net.step_into(&sends, None, &mut rx);
        assert_eq!(rx.get(id), None);
        assert_eq!(net.stats().corruptions, 2);
    }

    #[test]
    fn burst_inserts_on_silence() {
        let g = topology::line(3);
        let id = g.link_id(dl(0, 1)).unwrap();
        let atk = BurstLink::new(&g, dl(0, 1), 0, 10);
        let mut net = Network::new(g.clone(), Box::new(atk), 100);
        let sends = RoundFrame::for_graph(&g);
        let mut rx = RoundFrame::for_graph(&g);
        net.step_into(&sends, None, &mut rx);
        // Insertion: receiver observes a bit that was never sent.
        assert!(rx.get(id).is_some());
        assert_eq!(net.stats().cc, 0);
        assert_eq!(net.stats().corruptions, 1);
    }

    #[test]
    fn budget_is_enforced() {
        let g = topology::line(3);
        let atk = BurstLink::new(&g, dl(0, 1), 0, 10);
        let mut net = Network::new(g.clone(), Box::new(atk), 2);
        let mut sends = RoundFrame::for_graph(&g);
        let mut rx = RoundFrame::for_graph(&g);
        sends.set(g.link_id(dl(0, 1)).unwrap(), true);
        for _ in 0..5 {
            net.step_into(&sends, None, &mut rx);
        }
        assert_eq!(net.stats().corruptions, 2);
        assert_eq!(net.stats().dropped_corruptions, 3);
    }

    #[test]
    fn noise_fraction() {
        let s = NetStats {
            rounds: 10,
            cc: 100,
            corruptions: 5,
            dropped_corruptions: 0,
        };
        assert!((s.noise_fraction() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn downed_link_drops_symbols_and_insertions() {
        let g = topology::line(3);
        let id01 = g.link_id(dl(0, 1)).unwrap();
        let id12 = g.link_id(dl(1, 2)).unwrap();
        // BurstLink inserts on silence; the outage must drop that too.
        let atk = BurstLink::new(&g, dl(0, 1), 0, 1);
        let mut net = Network::new(g.clone(), Box::new(atk), 100);
        let mut sched = FaultSchedule::new();
        sched.link_down(0, id01);
        sched.link_up(2, id01);
        net.install_faults(sched);
        let mut sends = RoundFrame::for_graph(&g);
        let mut rx = RoundFrame::for_graph(&g);
        // Round 0: nothing sent on 0→1; adversary inserts; outage masks it.
        sends.set(id12, true);
        net.step_into(&sends, None, &mut rx);
        assert_eq!(rx.get(id01), None, "insertion on a downed link dropped");
        assert_eq!(rx.get(id12), Some(true), "other links unaffected");
        assert_eq!(net.stats().corruptions, 1, "adversary still pays budget");
        // Round 1: honest symbol on the downed link is dropped; cc still
        // counts the attempted transmission.
        sends.clear_all();
        sends.set(id01, true);
        net.step_into(&sends, None, &mut rx);
        assert_eq!(rx.get(id01), None);
        assert_eq!(net.stats().cc, 2);
        // Round 2: link is back up.
        sends.clear_all();
        sends.set(id01, false);
        net.step_into(&sends, None, &mut rx);
        assert_eq!(rx.get(id01), Some(false));
        let f = net.fault_stats();
        assert_eq!(f.links_downed, 1);
        assert_eq!(f.masked_symbols, 2);
        assert_eq!(f.crash_rounds, 0);
    }

    #[test]
    fn batched_and_serial_fault_paths_identical() {
        let g = topology::ring(4);
        let rounds = 7usize;
        let build_net = || {
            let mut net = Network::new(g.clone(), Box::new(NoNoise), 0);
            let mut sched = FaultSchedule::new();
            sched.link_down(1, 0);
            sched.link_up(4, 0);
            let incident: Vec<_> = g
                .neighbors(2)
                .iter()
                .flat_map(|&v| [g.link_id(dl(2, v)).unwrap(), g.link_id(dl(v, 2)).unwrap()])
                .collect();
            sched.crash_party(2, &incident);
            sched.recover_party(5, &incident);
            net.install_faults(sched);
            net
        };
        let mut batch_tx = FrameBatch::for_graph(&g, rounds);
        for r in 0..rounds {
            for lid in 0..g.link_count() {
                if (r + lid) % 3 != 0 {
                    batch_tx.set(lid, r, (r ^ lid) % 2 == 0);
                }
            }
        }
        // Batched path.
        let mut net_b = build_net();
        let mut batch_rx = FrameBatch::for_graph(&g, rounds);
        net_b.step_rounds_into(&batch_tx, None, &mut batch_rx);
        // Bit-serial path over the same rounds.
        let mut net_s = build_net();
        let mut tx = RoundFrame::for_graph(&g);
        let mut rx = RoundFrame::for_graph(&g);
        for r in 0..rounds {
            batch_tx.round_into(r, &mut tx);
            net_s.step_into(&tx, None, &mut rx);
            for lid in 0..g.link_count() {
                assert_eq!(
                    batch_rx.get(lid, r),
                    rx.get(lid),
                    "round {r} link {lid} diverged"
                );
            }
        }
        assert_eq!(net_b.stats(), net_s.stats());
        assert_eq!(net_b.fault_stats(), net_s.fault_stats());
        assert!(net_b.fault_stats().masked_symbols > 0);
        assert_eq!(net_b.fault_stats().crash_rounds, 3);
    }

    #[test]
    #[should_panic(expected = "not sized to graph")]
    fn rejects_mis_sized_frame() {
        let g = topology::line(3);
        let mut net = Network::new(g, Box::new(NoNoise), 0);
        let sends = RoundFrame::new(2);
        let mut rx = RoundFrame::new(2);
        net.step_into(&sends, None, &mut rx);
    }
}
