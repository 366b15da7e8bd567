//! The attack library used by the experiments.
//!
//! All "oblivious" attacks draw from private randomness with a consumption
//! pattern that is a function of `(round, link)` only — they are exactly
//! the additive adversaries of §2.1, just generated lazily instead of as a
//! pre-materialized noise tensor. The seed-aware attack is the §6.1
//! non-oblivious adversary.
//!
//! Attacks that touch specific links resolve them to dense
//! [`netgraph::LinkId`]s at construction (hence the `&Graph` parameter),
//! so probing a round's [`Sends`] is O(1) per link.

use crate::engine::{AdaptiveView, Adversary, Corruption};
use crate::frame::Sends;
use crate::phase::{PhaseGeometry, PhaseKind};
use netgraph::{DirectedLink, Graph, LinkId};
use smallbias::Xoshiro256;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Ternary additive noise (§2.1): symbols are {0, 1, *}≅{0, 1, 2} and the
/// adversary adds `e ∈ {1, 2}` mod 3 to the channel.
fn additive(honest: Option<bool>, e: u8) -> Option<bool> {
    let x = match honest {
        Some(false) => 0u8,
        Some(true) => 1,
        None => 2,
    };
    match (x + e) % 3 {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// The silent adversary.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoNoise;

impl Adversary for NoNoise {
    fn corrupt(
        &mut self,
        _: u64,
        _: Sends<'_>,
        _: u64,
        _: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

/// Geometric gap sampler: enumerates the *hit* slots of an i.i.d.
/// Bernoulli(`prob`) process over an abstract slot sequence without
/// touching the misses. Instead of one RNG draw per slot, one draw per hit
/// yields the gap to the next hit — per-round adversary cost drops from
/// `O(links)` to `O(expected hits)`, which is what makes high-rate rounds
/// over hundreds of links cheap. The induced hit pattern is a function of
/// private randomness only, so attacks built on it remain oblivious
/// (additive, §2.1).
struct GapSampler {
    rng: Xoshiro256,
    prob: f64,
    /// Absolute index of the next hit slot (`u64::MAX` = never).
    next_hit: u64,
    /// First slot not yet consumed.
    cursor: u64,
}

impl GapSampler {
    fn new(prob: f64, rng: Xoshiro256) -> Self {
        let mut s = GapSampler {
            rng,
            prob,
            next_hit: 0,
            cursor: 0,
        };
        s.next_hit = s.draw_gap();
        s
    }

    /// Misses before the next hit: `Geometric(prob)` via inversion.
    fn draw_gap(&mut self) -> u64 {
        if self.prob >= 1.0 {
            return 0;
        }
        if self.prob <= 0.0 {
            return u64::MAX;
        }
        let u = self.rng.unit_f64(); // [0, 1): 1 - u is in (0, 1]
        let g = ((1.0 - u).ln() / (1.0 - self.prob).ln()).floor();
        if g >= u64::MAX as f64 {
            u64::MAX
        } else {
            g as u64
        }
    }

    /// Consumes the next `count` slots, invoking `hit` with the relative
    /// offset and an additive error `e ∈ {1, 2}` for each hit among them.
    fn take(&mut self, count: u64, mut hit: impl FnMut(u64, u8)) {
        let end = self.cursor.saturating_add(count);
        while self.next_hit < end {
            let e = 1 + (self.rng.next_u64() % 2) as u8;
            hit(self.next_hit - self.cursor, e);
            let gap = self.draw_gap();
            self.next_hit = self.next_hit.saturating_add(1).saturating_add(gap);
        }
        self.cursor = end;
    }
}

/// Oblivious i.i.d. additive noise: every `(round, directed link)` slot is
/// corrupted independently with probability `prob`, with a uniformly random
/// additive offset in {1, 2}. Hits are enumerated by a geometric gap
/// sampler, so a round costs `O(hits)`, not `O(links)`; the pattern is a
/// function of the private RNG only and therefore independent of the
/// execution.
pub struct IidNoise {
    /// All directed links in [`netgraph::LinkId`] order (index = id).
    links: Vec<DirectedLink>,
    sampler: GapSampler,
    /// Rounds to leave untouched at the start (e.g. to spare the setup).
    skip_before: u64,
}

impl IidNoise {
    /// Noise over every directed link of `graph` with per-slot probability
    /// `prob`, seeded RNG.
    pub fn new(graph: &Graph, prob: f64, seed: u64) -> Self {
        IidNoise {
            links: graph.links().to_vec(),
            sampler: GapSampler::new(prob, Xoshiro256::seeded(seed ^ 0x6e6f_6973_65aa_bb01)),
            skip_before: 0,
        }
    }

    /// Leaves rounds `< round` noiseless (the pattern still advances,
    /// preserving obliviousness of the remaining rounds).
    pub fn skip_before(mut self, round: u64) -> Self {
        self.skip_before = round;
        self
    }
}

impl Adversary for IidNoise {
    fn corrupt(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        _budget: u64,
        _view: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption> {
        let mut out = Vec::new();
        let links = &self.links;
        let emit = round >= self.skip_before;
        self.sampler.take(links.len() as u64, |off, e| {
            if emit {
                let id = off as usize;
                out.push(Corruption {
                    link: links[id],
                    output: additive(sends.get(id), e),
                });
            }
        });
        out
    }

    fn name(&self) -> &'static str {
        "iid"
    }
}

/// Oblivious burst: additive-1 noise on one directed link for a round
/// window (flips bits, turns silence into inserted zeros... mod-3: silence
/// becomes `0`).
#[derive(Clone, Copy, Debug)]
pub struct BurstLink {
    link: DirectedLink,
    id: LinkId,
    start: u64,
    len: u64,
}

impl BurstLink {
    /// Burst on `link` during rounds `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is not an edge of `graph`.
    pub fn new(graph: &Graph, link: DirectedLink, start: u64, len: u64) -> Self {
        let id = graph.link_id(link).expect("burst on non-edge");
        BurstLink {
            link,
            id,
            start,
            len,
        }
    }
}

impl Adversary for BurstLink {
    fn corrupt(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        _budget: u64,
        _view: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption> {
        if round < self.start || round >= self.start + self.len {
            return Vec::new();
        }
        vec![Corruption {
            link: self.link,
            output: additive(sends.get(self.id), 1),
        }]
    }

    fn name(&self) -> &'static str {
        "burst"
    }
}

/// A single additive corruption at one `(round, link)` — the minimal attack
/// of the paper's §1.2 line example (F4).
#[derive(Clone, Copy, Debug)]
pub struct SingleError {
    link: DirectedLink,
    id: LinkId,
    round: u64,
    fired: bool,
}

impl SingleError {
    /// One corruption on `link` at `round`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is not an edge of `graph`.
    pub fn new(graph: &Graph, link: DirectedLink, round: u64) -> Self {
        let id = graph.link_id(link).expect("single error on non-edge");
        SingleError {
            link,
            id,
            round,
            fired: false,
        }
    }
}

impl Adversary for SingleError {
    fn corrupt(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        _budget: u64,
        _view: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption> {
        if self.fired || round != self.round {
            return Vec::new();
        }
        self.fired = true;
        vec![Corruption {
            link: self.link,
            output: additive(sends.get(self.id), 1),
        }]
    }

    fn name(&self) -> &'static str {
        "single"
    }
}

/// Oblivious phase-targeted noise: i.i.d. additive noise restricted to one
/// phase kind (the phase layout is public, so this is still oblivious).
/// Used to attack flag passing, the rewind wave, the meeting points, or the
/// randomness exchange specifically.
pub struct PhaseTargeted {
    geometry: PhaseGeometry,
    phase: PhaseKind,
    /// All directed links in [`netgraph::LinkId`] order (index = id).
    links: Vec<DirectedLink>,
    sampler: GapSampler,
}

impl PhaseTargeted {
    /// Noise over every directed link of `graph` with per-slot probability
    /// `prob`, confined to `phase`.
    pub fn new(
        graph: &Graph,
        geometry: PhaseGeometry,
        phase: PhaseKind,
        prob: f64,
        seed: u64,
    ) -> Self {
        PhaseTargeted {
            geometry,
            phase,
            links: graph.links().to_vec(),
            sampler: GapSampler::new(prob, Xoshiro256::seeded(seed ^ 0x7068_6173_65cc_dd02)),
        }
    }
}

impl Adversary for PhaseTargeted {
    fn corrupt(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        _budget: u64,
        _view: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption> {
        let mut out = Vec::new();
        let links = &self.links;
        let emit = self.geometry.locate(round).phase == self.phase;
        self.sampler.take(links.len() as u64, |off, e| {
            if emit {
                let id = off as usize;
                out.push(Corruption {
                    link: links[id],
                    output: additive(sends.get(id), e),
                });
            }
        });
        out
    }

    fn name(&self) -> &'static str {
        "phase_targeted"
    }
}

/// The §6.1 **non-oblivious, seed-aware** adversary: during every
/// simulation phase it hunts (via the runner's oracle) for a corruption
/// whose damage will be masked by a hash collision at the next
/// meeting-points check — guaranteed-undetected errors. It spends at most
/// `per_iteration` corruptions per iteration.
///
/// Against a constant hash length (Algorithm A) the hunt succeeds roughly
/// every iteration once `m` candidate positions × 2^{-τ} ≳ 1 and the
/// simulation never converges; against τ = Θ(log m) (Algorithm B) the
/// success probability per candidate is `m^{-Θ(1)}` and the hunt starves.
///
/// Its oracle reads live per-round simulation state, which only exists
/// on the bit-serial path. The batched phases (meeting points, exchange)
/// still ask it once per round, and it stays idle there because they are
/// not simulation rounds.
pub struct SeedAwareCollision {
    geometry: PhaseGeometry,
    edges: usize,
    per_iteration: u64,
    spent_this_iteration: u64,
    current_iteration: u64,
}

impl SeedAwareCollision {
    /// Hunts over all `edges` edges, at most `per_iteration` hits per
    /// iteration.
    pub fn new(geometry: PhaseGeometry, edges: usize, per_iteration: u64) -> Self {
        SeedAwareCollision {
            geometry,
            edges,
            per_iteration,
            spent_this_iteration: 0,
            current_iteration: u64::MAX,
        }
    }
}

impl Adversary for SeedAwareCollision {
    fn corrupt(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        budget: u64,
        view: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption> {
        let Some(view) = view else {
            return Vec::new();
        };
        let pos = self.geometry.locate(round);
        if pos.phase != PhaseKind::Simulation || budget == 0 {
            return Vec::new();
        }
        if pos.iteration != self.current_iteration {
            self.current_iteration = pos.iteration;
            self.spent_this_iteration = 0;
        }
        if self.spent_this_iteration >= self.per_iteration {
            return Vec::new();
        }
        for edge in 0..self.edges {
            // Only attack links that are currently in agreement — the point
            // is to *create* a fresh undetected divergence.
            if view.diverged(edge) {
                continue;
            }
            if let Some(c) = view.collision_corruption(edge, sends) {
                self.spent_this_iteration += 1;
                return vec![c];
            }
        }
        Vec::new()
    }

    fn is_oblivious(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "seed_aware"
    }
}

// ---------------------------------------------------------------------
// Phase-aware adaptive attacks (PR 5).
//
// All four condition on the live view's phase-aware surface
// (`AdaptiveView::phase_of` and friends). When the runner withholds phase
// visibility (`AdversaryClass::{Oblivious,SeedAware}`), `phase_of`
// returns `None` and every one of them idles — the same attack code
// degrades gracefully to a no-op under a stricter adversary model.
// ---------------------------------------------------------------------

/// Runs two adversaries' corruption streams in the same round — the
/// composition the suites and experiments use to pair a wave-triggering
/// oblivious attack (e.g. a burst) with a phase-aware one. Oblivious iff
/// both halves are. Each half is asked once per round with the same
/// sends and budget, so each keeps its own corruption stream.
pub struct Pair(pub Box<dyn Adversary>, pub Box<dyn Adversary>);

impl Adversary for Pair {
    fn corrupt(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        remaining_budget: u64,
        view: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption> {
        let mut out = self.0.corrupt(round, sends, remaining_budget, view);
        out.extend(self.1.corrupt(round, sends, remaining_budget, view));
        out
    }

    fn is_oblivious(&self) -> bool {
        self.0.is_oblivious() && self.1.is_oblivious()
    }

    fn name(&self) -> &'static str {
        "pair"
    }
}

/// The per-edge directed-link pair `(lo → hi, hi → lo)` for every edge,
/// resolved once at construction so phase-aware attacks address an edge's
/// two directions in O(1).
fn edge_links(graph: &Graph) -> Vec<(DirectedLink, LinkId, DirectedLink, LinkId)> {
    graph
        .edges()
        .map(|(_, u, v)| {
            let fwd = DirectedLink { from: u, to: v };
            let bwd = DirectedLink { from: v, to: u };
            (
                fwd,
                graph.link_id(fwd).expect("edge link"),
                bwd,
                graph.link_id(bwd).expect("edge link"),
            )
        })
        .collect()
}

/// Phase-aware **meeting-points splitter**: spends its budget exclusively
/// on the 4τ-bit meeting-points exchange, in two modes chosen per edge
/// from the live view:
///
/// * *split* — on an edge whose transcripts still agree, corrupt one bit
///   of `h(T)` **and** one bit of `h(T[..mpc1])` in one direction. The
///   receiver sees a confirmed mismatch whose only surviving rollback
///   candidate is its own `mpc2`, truncates one chunk, and returns to
///   `Simulate` — an **asymmetric** rollback that manufactures a length
///   divergence for 2 corruptions without ever touching payload;
/// * *stall* — on an edge that has already diverged, corrupt one bit of
///   `h(k)` in each direction. Both endpoints reset their `k, E`
///   counters (counted as `mp_resets`), so the repair loop restarts from
///   scratch and the divergence survives another iteration.
///
/// Its oblivious counterpart is [`PhaseTargeted`] aimed at
/// [`PhaseKind::MeetingPoints`], which sprays the same rounds blindly;
/// the splitter lands every corruption on a field that matters.
///
/// The meeting-points exchange is the phase the runner batches, so this
/// attack is mostly asked through [`Sends::Batch`] views; it draws no
/// private randomness, so its stream is the same on either wire path.
pub struct MeetingPointSplitter {
    /// Per-edge directed links, edge-id order.
    elinks: Vec<(DirectedLink, LinkId, DirectedLink, LinkId)>,
    tau: u32,
    /// Max edges attacked per iteration (each costs ≤ 2 corruptions).
    per_iteration: u64,
    spent_this_iteration: u64,
    current_iteration: u64,
    /// Edges chosen for a split at offset τ, to re-target at offset 2τ.
    split_targets: Vec<usize>,
}

impl MeetingPointSplitter {
    /// Splitter over all edges of `graph` for hash length `tau`,
    /// attacking at most `per_iteration` edges per iteration.
    pub fn new(graph: &Graph, tau: u32, per_iteration: u64) -> Self {
        MeetingPointSplitter {
            elinks: edge_links(graph),
            tau,
            per_iteration,
            spent_this_iteration: 0,
            current_iteration: u64::MAX,
            split_targets: Vec::new(),
        }
    }
}

impl Adversary for MeetingPointSplitter {
    fn corrupt(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        _budget: u64,
        view: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption> {
        let Some(view) = view else {
            return Vec::new();
        };
        let Some(pos) = view.phase_of(round) else {
            return Vec::new(); // phase visibility withheld
        };
        if pos.phase != PhaseKind::MeetingPoints {
            return Vec::new();
        }
        if pos.iteration != self.current_iteration {
            self.current_iteration = pos.iteration;
            self.spent_this_iteration = 0;
            self.split_targets.clear();
        }
        let tau = self.tau as u64;
        let mut out = Vec::new();
        let mut hit =
            |elinks: &[(DirectedLink, LinkId, DirectedLink, LinkId)], e: usize, both: bool| {
                let (fwd, fid, bwd, bid) = elinks[e];
                out.push(Corruption {
                    link: fwd,
                    output: additive(sends.get(fid), 1),
                });
                if both {
                    out.push(Corruption {
                        link: bwd,
                        output: additive(sends.get(bid), 1),
                    });
                }
            };
        match pos.offset {
            // Bit 0 of h(k): stall every already-diverged edge.
            0 => {
                for e in 0..self.elinks.len() {
                    if self.spent_this_iteration >= self.per_iteration {
                        break;
                    }
                    if view.diverged(e) {
                        self.spent_this_iteration += 1;
                        hit(&self.elinks, e, true);
                    }
                }
            }
            // Bit 0 of h(T): open a split on agreeing edges…
            o if o == tau => {
                for e in 0..self.elinks.len() {
                    if self.spent_this_iteration >= self.per_iteration {
                        break;
                    }
                    if !view.diverged(e) {
                        self.spent_this_iteration += 1;
                        self.split_targets.push(e);
                        hit(&self.elinks, e, false);
                    }
                }
            }
            // …and bit 0 of h(T[..mpc1]): close it (same edges, same
            // direction), leaving mpc2 as the only rollback candidate.
            o if o == 2 * tau => {
                let targets = std::mem::take(&mut self.split_targets);
                for &e in &targets {
                    hit(&self.elinks, e, false);
                }
                self.split_targets = targets;
            }
            _ => {}
        }
        out
    }

    fn is_oblivious(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "mp_splitter"
    }
}

/// Phase-aware **flag flipper**: desynchronizes the network by flipping
/// live *continue* flags to *stop* during the flag-passing phase. One
/// up-sweep flip poisons every aggregate above the victim, so the root
/// broadcasts *stop* and the whole network idles for the iteration —
/// one corruption buys a full stalled iteration (`stalled_iterations`),
/// where the oblivious [`PhaseTargeted`] counterpart mostly lands on
/// silent slots or flags that were *stop* anyway.
///
/// Flag passing is data-dependent and never batched by the runner, so
/// on the batched path this attack is only ever asked about other
/// phases, where it idles.
pub struct FlagFlipper {
    /// All directed links in [`netgraph::LinkId`] order (index = id).
    links: Vec<DirectedLink>,
    /// Max flags flipped per iteration.
    per_iteration: u64,
    spent_this_iteration: u64,
    current_iteration: u64,
}

impl FlagFlipper {
    /// Flipper over `graph`, at most `per_iteration` flips per iteration.
    pub fn new(graph: &Graph, per_iteration: u64) -> Self {
        FlagFlipper {
            links: graph.links().to_vec(),
            per_iteration,
            spent_this_iteration: 0,
            current_iteration: u64::MAX,
        }
    }
}

impl Adversary for FlagFlipper {
    fn corrupt(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        _budget: u64,
        view: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption> {
        let Some(view) = view else {
            return Vec::new();
        };
        let Some(pos) = view.phase_of(round) else {
            return Vec::new();
        };
        if pos.phase != PhaseKind::FlagPassing {
            return Vec::new();
        }
        if pos.iteration != self.current_iteration {
            self.current_iteration = pos.iteration;
            self.spent_this_iteration = 0;
        }
        let mut out = Vec::new();
        for id in 0..self.links.len() {
            if self.spent_this_iteration >= self.per_iteration {
                break;
            }
            if sends.get(id) == Some(true) {
                self.spent_this_iteration += 1;
                out.push(Corruption {
                    link: self.links[id],
                    output: Some(false),
                });
            }
        }
        out
    }

    fn is_oblivious(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "flag_flipper"
    }
}

/// Phase-aware **rewind suppressor**: watches the rewind wave's active
/// set through [`AdaptiveView::rewind_active`] and spends budget exactly
/// on rounds where the set *shrinks* — the rounds in which the wave
/// front is advancing — deleting every rewind request on the wire. A
/// deleted request leaves the sender truncated and the receiver not,
/// so instead of closing a length gap the wave widens it, and the
/// damage surfaces as extra repair iterations. The previous round's
/// active-set size is carried in the view's cross-iteration memory slot.
///
/// Its oblivious counterpart is [`PhaseTargeted`] on
/// [`PhaseKind::Rewind`], which wastes most hits on silent links.
///
/// The active-set signal only exists on the bit-serial path: the runner
/// batches rewind rounds only when the phase is disabled and silent, and
/// then [`AdaptiveView::rewind_active`] is `None`, so this attack idles
/// on every batched round.
pub struct RewindSuppressor {
    /// All directed links in [`netgraph::LinkId`] order (index = id).
    links: Vec<DirectedLink>,
    /// Max deletions per rewind phase.
    per_phase: u64,
    spent_this_phase: u64,
    current_iteration: u64,
}

impl RewindSuppressor {
    /// Suppressor over `graph`, deleting at most `per_phase` requests per
    /// rewind phase.
    pub fn new(graph: &Graph, per_phase: u64) -> Self {
        RewindSuppressor {
            links: graph.links().to_vec(),
            per_phase,
            spent_this_phase: 0,
            current_iteration: u64::MAX,
        }
    }
}

impl Adversary for RewindSuppressor {
    fn corrupt(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        _budget: u64,
        view: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption> {
        let Some(view) = view else {
            return Vec::new();
        };
        let Some(pos) = view.phase_of(round) else {
            return Vec::new();
        };
        if pos.phase != PhaseKind::Rewind {
            return Vec::new();
        }
        let Some(active) = view.rewind_active() else {
            return Vec::new(); // rewind disabled, or visibility withheld
        };
        if pos.iteration != self.current_iteration {
            self.current_iteration = pos.iteration;
            self.spent_this_phase = 0;
        }
        if pos.offset == 0 {
            // Phase start: everyone is nominally active; just record.
            view.set_memory(active as u64);
            return Vec::new();
        }
        let prev = view.memory();
        view.set_memory(active as u64);
        if (active as u64) >= prev {
            return Vec::new(); // wave not advancing: save the budget
        }
        let mut out = Vec::new();
        for (id, _) in sends.iter_set() {
            if self.spent_this_phase >= self.per_phase {
                break;
            }
            self.spent_this_phase += 1;
            out.push(Corruption {
                link: self.links[id],
                output: None, // delete the rewind request
            });
        }
        out
    }

    fn is_oblivious(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "rewind_suppressor"
    }
}

/// Phase-aware **cross-iteration hunter**: the §6.1 seed-aware collision
/// hunt, but with its budget *amortized across iterations* through the
/// view's memory slot. Each simulation phase deposits `per_iteration`
/// hunting credits (capped at `burst_cap`); every predicted-collision
/// corruption spends one. Iterations in which the oracle finds nothing
/// bank their credits, so when the execution finally reaches a
/// collision-rich configuration the hunter can land a burst the
/// fixed-allowance [`SeedAwareCollision`] would have had to spread out.
///
/// Like [`SeedAwareCollision`], its oracle reads live per-round
/// simulation state that only exists on the bit-serial path, so it idles
/// on batched rounds.
pub struct CrossIterationHunter {
    edges: usize,
    per_iteration: u64,
    burst_cap: u64,
    current_iteration: u64,
}

impl CrossIterationHunter {
    /// Hunts over all `edges` edges, earning `per_iteration` credits per
    /// iteration, banked up to `burst_cap`.
    pub fn new(edges: usize, per_iteration: u64, burst_cap: u64) -> Self {
        CrossIterationHunter {
            edges,
            per_iteration,
            burst_cap: burst_cap.max(per_iteration),
            current_iteration: u64::MAX,
        }
    }
}

impl Adversary for CrossIterationHunter {
    fn corrupt(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        budget: u64,
        view: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption> {
        let Some(view) = view else {
            return Vec::new();
        };
        let Some(pos) = view.phase_of(round) else {
            return Vec::new(); // phase visibility withheld: starve
        };
        if pos.phase != PhaseKind::Simulation || budget == 0 {
            return Vec::new();
        }
        // Credits live in the cross-iteration memory slot.
        let mut credits = view.memory();
        if pos.iteration != self.current_iteration {
            self.current_iteration = pos.iteration;
            credits = (credits + self.per_iteration).min(self.burst_cap);
        }
        let mut out = Vec::new();
        for edge in 0..self.edges {
            if credits == 0 {
                break;
            }
            if view.diverged(edge) {
                continue; // the point is to create fresh divergence
            }
            if let Some(c) = view.collision_corruption(edge, sends) {
                credits -= 1;
                out.push(c);
            }
        }
        view.set_memory(credits);
        out
    }

    fn is_oblivious(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "cross_iteration_hunter"
    }
}

/// One step of a [`ScriptedAdversary`]: an additive error `e ∈ {1, 2}`
/// on the directed link with dense id `lid`, at absolute round `round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct ScriptStep {
    /// Absolute engine round the corruption lands in.
    pub round: u64,
    /// Dense [`LinkId`] of the target link.
    pub lid: LinkId,
    /// Additive error in {1, 2} (mod-3 over {0, 1, *}).
    pub e: u8,
}

/// A fully scripted oblivious adversary: a fixed, budget-respecting
/// corruption script fixed before the run (the additive noise tensor of
/// §2.1, materialized). The invariant fuzz suites generate random
/// scripts ([`ScriptedAdversary::random`]) and replay them through every
/// engine path and scheme configuration.
pub struct ScriptedAdversary {
    /// All directed links in [`netgraph::LinkId`] order (index = id).
    links: Vec<DirectedLink>,
    /// Steps sorted by round (stable on lid).
    script: Vec<ScriptStep>,
    cursor: usize,
}

impl ScriptedAdversary {
    /// An adversary replaying `script` (sorted internally by round).
    ///
    /// Steps sharing a `(round, lid)` slot would double-corrupt one link
    /// — two budget charges for one wire effect — so duplicates are
    /// collapsed here, keeping the first in sorted order.
    pub fn new(graph: &Graph, mut script: Vec<ScriptStep>) -> Self {
        script.sort_by_key(|s| (s.round, s.lid));
        script.dedup_by_key(|s| (s.round, s.lid));
        ScriptedAdversary {
            links: graph.links().to_vec(),
            script,
            cursor: 0,
        }
    }

    /// A deterministic random script of `len` steps over rounds
    /// `[0, max_round)`, derived from `seed` — the reusable generator of
    /// the invariant fuzz suites (proptest draws `(seed, len)` and the
    /// script follows). Draws are rejected until the script holds `len`
    /// *distinct* `(round, lid)` slots (capped at the slot universe), so
    /// the generated script never double-corrupts a link.
    pub fn random(graph: &Graph, max_round: u64, len: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256::seeded(seed ^ 0x5c21_97ed_ab1e_5007);
        let links = graph.link_count() as u64;
        let rounds = max_round.max(1);
        let target = (len as u64).min(rounds.saturating_mul(links)) as usize;
        let mut seen = BTreeSet::new();
        let mut script = Vec::with_capacity(target);
        while script.len() < target {
            let step = ScriptStep {
                round: rng.next_u64() % rounds,
                lid: (rng.next_u64() % links) as LinkId,
                e: 1 + (rng.next_u64() % 2) as u8,
            };
            if seen.insert((step.round, step.lid)) {
                script.push(step);
            }
        }
        ScriptedAdversary::new(graph, script)
    }

    /// The script (sorted by round).
    pub fn script(&self) -> &[ScriptStep] {
        &self.script
    }
}

impl Adversary for ScriptedAdversary {
    fn corrupt(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        remaining_budget: u64,
        _view: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption> {
        let mut out = Vec::new();
        while self.cursor < self.script.len() && self.script[self.cursor].round < round {
            self.cursor += 1; // rounds the engine never asked about
        }
        while self.cursor < self.script.len() && self.script[self.cursor].round == round {
            let s = self.script[self.cursor];
            // Steps past the budget are consumed, not deferred: the
            // engine's budget only ever shrinks, so a step suppressed
            // here could never legally fire in a later round either.
            self.cursor += 1;
            if (out.len() as u64) < remaining_budget {
                out.push(Corruption {
                    link: self.links[s.lid],
                    output: additive(sends.get(s.lid), s.e),
                });
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "scripted"
    }
}

// ---------------------------------------------------------------------
// Script genomes (PR 10): the adversary-search outer loop treats a
// corruption script as a genome. The operators below are pure, seeded
// functions — same inputs, same child — and every child goes through
// `repair_script`, so offspring are budget-respecting, sorted by
// `(round, lid)` and free of double-corrupted slots by construction.
// ---------------------------------------------------------------------

/// The universe a script genome lives in: rounds `[0, max_round)`, link
/// ids `[0, links)`, at most `budget` steps (one corruption each).
#[derive(Clone, Copy, Debug)]
pub struct ScriptBounds {
    /// Exclusive upper bound on step rounds.
    pub max_round: u64,
    /// Size of the dense [`LinkId`] universe.
    pub links: usize,
    /// Maximum script length (= the engine corruption budget).
    pub budget: u64,
}

/// Clamps, sorts and dedupes a raw script into `bounds`: rounds and lids
/// clamped into range, errors forced into {1, 2}, steps sorted by
/// `(round, lid)`, duplicate slots collapsed (first wins), and the tail
/// truncated to `bounds.budget`. Idempotent; every genome operator runs
/// its output through here.
pub fn repair_script(mut script: Vec<ScriptStep>, bounds: ScriptBounds) -> Vec<ScriptStep> {
    let max_round = bounds.max_round.max(1);
    let links = bounds.links.max(1);
    for s in &mut script {
        s.round = s.round.min(max_round - 1);
        s.lid = s.lid.min(links - 1);
        if !(1..=2).contains(&s.e) {
            s.e = 1 + s.e % 2;
        }
    }
    script.sort_by_key(|s| (s.round, s.lid));
    script.dedup_by_key(|s| (s.round, s.lid));
    script.truncate(bounds.budget.min(usize::MAX as u64) as usize);
    script
}

/// Seeded point mutation: each step independently gets its round
/// jittered (±`max_round`/16), its link re-targeted, its error pattern
/// flipped, or is dropped; with spare budget a fresh random step is
/// spliced in. Deterministic in `(script, bounds, seed)`.
pub fn mutate_script(script: &[ScriptStep], bounds: ScriptBounds, seed: u64) -> Vec<ScriptStep> {
    let mut rng = Xoshiro256::seeded(seed ^ 0x6d75_7461_7465_aa01);
    let max_round = bounds.max_round.max(1);
    let links = bounds.links.max(1) as u64;
    let window = (max_round / 16).max(1);
    let mut child = Vec::with_capacity(script.len() + 1);
    for &s in script {
        let mut s = s;
        match rng.next_u64() % 8 {
            // Round jitter: slide the step by a signed delta in
            // [-window, window], saturating at the genome's bounds.
            0..=2 => {
                let delta = (rng.next_u64() % (2 * window + 1)) as i128 - window as i128;
                let r = (s.round as i128 + delta).clamp(0, (max_round - 1) as i128);
                s.round = r as u64;
            }
            // Link re-target.
            3 | 4 => s.lid = (rng.next_u64() % links) as LinkId,
            // Error-pattern flip (1 ↔ 2).
            5 => s.e = 3 - s.e,
            // Drop.
            6 => continue,
            // Keep.
            _ => {}
        }
        child.push(s);
    }
    if (child.len() as u64) < bounds.budget && rng.next_u64() % 2 == 0 {
        child.push(ScriptStep {
            round: rng.next_u64() % max_round,
            lid: (rng.next_u64() % links) as LinkId,
            e: 1 + (rng.next_u64() % 2) as u8,
        });
    }
    repair_script(child, bounds)
}

/// Seeded splice crossover: picks a pivot round and concatenates `a`'s
/// steps before it with `b`'s steps from it on — the child inherits one
/// parent's opening and the other's endgame. Deterministic in
/// `(a, b, bounds, seed)`.
pub fn crossover_scripts(
    a: &[ScriptStep],
    b: &[ScriptStep],
    bounds: ScriptBounds,
    seed: u64,
) -> Vec<ScriptStep> {
    let mut rng = Xoshiro256::seeded(seed ^ 0x6372_6f73_735f_bb02);
    let pivot = rng.next_u64() % bounds.max_round.max(1);
    let child = a
        .iter()
        .filter(|s| s.round < pivot)
        .chain(b.iter().filter(|s| s.round >= pivot))
        .copied()
        .collect();
    repair_script(child, bounds)
}

/// Wraps any adversary and transcribes the corruptions the engine will
/// actually *apply* into a [`ScriptStep`] sink — the bridge that renders
/// the hand-built adaptive attacks as scripts to seed the search
/// population. The wrapper is transparent (it forwards every emitted
/// corruption unchanged), so a wrapped run is byte-identical to an
/// unwrapped one; it mirrors the engine's application filter (non-edges
/// and no-ops skipped, budget draw-down) so the recorded script replays
/// to the same wire effects *and* the same budget accounting. By
/// determinism, replaying the sink through a [`ScriptedAdversary`]
/// against the same trial seed reproduces the recorded run exactly.
///
/// None of the shipped attacks targets one `(round, link)` slot twice,
/// so the recording is slot-unique in practice; a hypothetical
/// double-hit would be collapsed by `ScriptedAdversary::new` on replay.
pub struct ScriptRecorder {
    inner: Box<dyn Adversary>,
    graph: Graph,
    sink: Rc<RefCell<Vec<ScriptStep>>>,
}

/// {0, 1, *} → {0, 1, 2}, the mod-3 symbol encoding of §2.1.
fn sym(x: Option<bool>) -> u8 {
    match x {
        Some(false) => 0,
        Some(true) => 1,
        None => 2,
    }
}

impl ScriptRecorder {
    /// Wraps `inner`, returning the recorder and a shared handle to the
    /// growing script (read it after the run).
    pub fn new(graph: &Graph, inner: Box<dyn Adversary>) -> (Self, Rc<RefCell<Vec<ScriptStep>>>) {
        let sink = Rc::new(RefCell::new(Vec::new()));
        (
            ScriptRecorder {
                inner,
                graph: graph.clone(),
                sink: Rc::clone(&sink),
            },
            sink,
        )
    }
}

impl Adversary for ScriptRecorder {
    fn corrupt(
        &mut self,
        round: u64,
        sends: Sends<'_>,
        remaining_budget: u64,
        view: Option<&dyn AdaptiveView>,
    ) -> Vec<Corruption> {
        let out = self.inner.corrupt(round, sends, remaining_budget, view);
        let mut sink = self.sink.borrow_mut();
        let mut applied = 0u64;
        for c in &out {
            let Some(lid) = self.graph.link_id(c.link) else {
                continue; // the engine ignores non-edges
            };
            let honest = sends.get(lid);
            if honest == c.output || applied >= remaining_budget {
                continue; // no-op / over budget: the engine won't apply it
            }
            applied += 1;
            let e = (sym(c.output) + 3 - sym(honest)) % 3;
            sink.push(ScriptStep { round, lid, e });
        }
        out
    }

    fn is_oblivious(&self) -> bool {
        self.inner.is_oblivious()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameBatch, RoundFrame};
    use netgraph::topology;

    fn dl(from: usize, to: usize) -> DirectedLink {
        DirectedLink { from, to }
    }

    #[test]
    fn additive_table() {
        assert_eq!(additive(Some(false), 1), Some(true)); // 0+1 = 1
        assert_eq!(additive(Some(true), 1), None); // 1+1 = 2 = *
        assert_eq!(additive(None, 1), Some(false)); // 2+1 = 0
        assert_eq!(additive(Some(false), 2), None); // deletion
        assert_eq!(additive(Some(true), 2), Some(false)); // substitution
        assert_eq!(additive(None, 2), Some(true)); // insertion
    }

    #[test]
    fn iid_noise_is_reproducible() {
        let g = topology::line(2);
        let mut a = IidNoise::new(&g, 0.5, 1);
        let mut b = IidNoise::new(&g, 0.5, 1);
        let sends = RoundFrame::for_graph(&g);
        for round in 0..50 {
            assert_eq!(
                a.corrupt(round, Sends::Frame(&sends), u64::MAX, None),
                b.corrupt(round, Sends::Frame(&sends), u64::MAX, None)
            );
        }
    }

    #[test]
    fn iid_noise_rate_close_to_prob() {
        let g = topology::line(2); // 2 directed links
        let mut a = IidNoise::new(&g, 0.1, 42);
        let sends = RoundFrame::for_graph(&g);
        let mut hits = 0;
        for round in 0..10_000 {
            hits += a.corrupt(round, Sends::Frame(&sends), u64::MAX, None).len();
        }
        // Expected hits per round = links × prob = 0.2.
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn single_error_fires_once() {
        let g = topology::line(2);
        let mut a = SingleError::new(&g, dl(0, 1), 5);
        let sends = RoundFrame::for_graph(&g);
        let mut total = 0;
        for round in 0..10 {
            total += a.corrupt(round, Sends::Frame(&sends), u64::MAX, None).len();
        }
        assert_eq!(total, 1);
    }

    #[test]
    #[should_panic(expected = "non-edge")]
    fn single_error_rejects_non_edge() {
        let g = topology::line(3);
        let _ = SingleError::new(&g, dl(0, 2), 0);
    }

    #[test]
    fn phase_targeted_respects_phase() {
        let g = PhaseGeometry {
            setup: 0,
            meeting_points: 5,
            flag_passing: 5,
            simulation: 5,
            rewind: 5,
        };
        let graph = topology::line(2);
        let mut a = PhaseTargeted::new(&graph, g, PhaseKind::FlagPassing, 1.0, 3);
        let sends = RoundFrame::for_graph(&graph);
        for round in 0..40 {
            let cs = a.corrupt(round, Sends::Frame(&sends), u64::MAX, None);
            let in_fp = g.locate(round).phase == PhaseKind::FlagPassing;
            assert_eq!(!cs.is_empty(), in_fp, "round {round}");
        }
    }

    #[test]
    fn phase_aware_attacks_idle_without_view() {
        let graph = topology::line(3);
        let sends = RoundFrame::for_graph(&graph);
        let mut attacks: Vec<Box<dyn Adversary>> = vec![
            Box::new(MeetingPointSplitter::new(&graph, 8, 2)),
            Box::new(FlagFlipper::new(&graph, 1)),
            Box::new(RewindSuppressor::new(&graph, 4)),
            Box::new(CrossIterationHunter::new(2, 1, 4)),
        ];
        for a in &mut attacks {
            assert!(a
                .corrupt(5, Sends::Frame(&sends), u64::MAX, None)
                .is_empty());
            assert!(!a.is_oblivious());
        }
    }

    #[test]
    fn scripted_adversary_replays_in_round_order() {
        let graph = topology::line(3);
        let steps = vec![
            ScriptStep {
                round: 7,
                lid: 1,
                e: 2,
            },
            ScriptStep {
                round: 2,
                lid: 0,
                e: 1,
            },
            ScriptStep {
                round: 7,
                lid: 0,
                e: 1,
            },
        ];
        let mut a = ScriptedAdversary::new(&graph, steps);
        assert_eq!(a.script()[0].round, 2, "sorted by round");
        let sends = RoundFrame::for_graph(&graph);
        assert!(a
            .corrupt(0, Sends::Frame(&sends), u64::MAX, None)
            .is_empty());
        assert_eq!(a.corrupt(2, Sends::Frame(&sends), u64::MAX, None).len(), 1);
        // Skipped rounds are dropped, same-round steps batch together.
        assert_eq!(a.corrupt(7, Sends::Frame(&sends), u64::MAX, None).len(), 2);
        assert!(a
            .corrupt(8, Sends::Frame(&sends), u64::MAX, None)
            .is_empty());
    }

    #[test]
    fn scripted_random_is_deterministic_and_budget_sized() {
        let graph = topology::ring(4);
        let a = ScriptedAdversary::random(&graph, 100, 17, 5);
        let b = ScriptedAdversary::random(&graph, 100, 17, 5);
        assert_eq!(a.script(), b.script());
        assert_eq!(a.script().len(), 17);
        assert!(a
            .script()
            .iter()
            .all(|s| s.round < 100 && s.lid < graph.link_count() && (1..=2).contains(&s.e)));
    }

    #[test]
    fn scripted_construction_dedupes_double_corrupted_slots() {
        let graph = topology::line(3);
        let step = |round, lid, e| ScriptStep { round, lid, e };
        let a = ScriptedAdversary::new(
            &graph,
            vec![step(4, 1, 2), step(4, 1, 1), step(4, 0, 1), step(2, 1, 2)],
        );
        // (4, 1) collapsed to one step (first in sorted order wins).
        assert_eq!(a.script(), &[step(2, 1, 2), step(4, 0, 1), step(4, 1, 2)]);
    }

    /// Regression (PR 10): an over-long script used to ignore
    /// `remaining_budget` and push the engine into dropping corruptions;
    /// now the adversary draws the budget down itself.
    #[test]
    fn scripted_over_long_script_never_exceeds_engine_budget() {
        let graph = topology::line(3);
        let script: Vec<ScriptStep> = (0..6)
            .map(|r| ScriptStep {
                round: r,
                lid: 0,
                e: 1,
            })
            .collect();

        // Sequential path.
        let adv = ScriptedAdversary::new(&graph, script.clone());
        let mut net = crate::Network::new(graph.clone(), Box::new(adv), 3);
        let sends = RoundFrame::for_graph(&graph);
        let mut rx = RoundFrame::for_graph(&graph);
        for _ in 0..6 {
            net.step_into(&sends, None, &mut rx);
        }
        assert_eq!(net.stats().corruptions, 3);
        assert_eq!(net.stats().dropped_corruptions, 0, "budget not honored");

        // Batched path: same accounting in one call.
        let adv = ScriptedAdversary::new(&graph, script);
        let mut net = crate::Network::new(graph.clone(), Box::new(adv), 3);
        let batch = FrameBatch::for_graph(&graph, 6);
        let mut brx = FrameBatch::for_graph(&graph, 6);
        net.step_rounds_into(&batch, None, &mut brx);
        assert_eq!(net.stats().corruptions, 3);
        assert_eq!(net.stats().dropped_corruptions, 0);
    }

    #[test]
    fn scripted_random_draws_distinct_slots() {
        let graph = topology::ring(4);
        let a = ScriptedAdversary::random(&graph, 3, 20, 9);
        // Only 3 rounds × 8 links = 24 slots; all 20 steps distinct.
        let slots: BTreeSet<_> = a.script().iter().map(|s| (s.round, s.lid)).collect();
        assert_eq!(slots.len(), 20);
    }

    fn bounds() -> ScriptBounds {
        ScriptBounds {
            max_round: 64,
            links: 8,
            budget: 10,
        }
    }

    fn well_formed(script: &[ScriptStep], b: ScriptBounds) {
        assert!(script.len() as u64 <= b.budget, "over budget");
        assert!(script
            .windows(2)
            .all(|w| (w[0].round, w[0].lid) < (w[1].round, w[1].lid)));
        assert!(script
            .iter()
            .all(|s| s.round < b.max_round && s.lid < b.links && (1..=2).contains(&s.e)));
    }

    #[test]
    fn genome_operators_are_deterministic_and_repaired() {
        let graph = topology::ring(4);
        let b = bounds();
        let a = ScriptedAdversary::random(&graph, b.max_round, 10, 1);
        let c = ScriptedAdversary::random(&graph, b.max_round, 10, 2);
        for seed in 0..20 {
            let m1 = mutate_script(a.script(), b, seed);
            let m2 = mutate_script(a.script(), b, seed);
            assert_eq!(m1, m2);
            well_formed(&m1, b);
            let x1 = crossover_scripts(a.script(), c.script(), b, seed);
            let x2 = crossover_scripts(a.script(), c.script(), b, seed);
            assert_eq!(x1, x2);
            well_formed(&x1, b);
        }
    }

    #[test]
    fn repair_clamps_into_bounds() {
        let b = bounds();
        let wild = vec![
            ScriptStep {
                round: 1_000,
                lid: 99,
                e: 0,
            },
            ScriptStep {
                round: 5,
                lid: 3,
                e: 7,
            },
        ];
        let fixed = repair_script(wild, b);
        well_formed(&fixed, b);
        assert_eq!(fixed.len(), 2);
    }

    #[test]
    fn recorder_transcribes_applied_corruptions_only() {
        let graph = topology::line(2);
        let lid = graph.link_id(dl(0, 1)).unwrap();
        // Burst of 5 insertions, but the engine budget only admits 3:
        // the sink must hold exactly the applied prefix.
        let burst = BurstLink::new(&graph, dl(0, 1), 3, 5);
        let (rec, sink) = ScriptRecorder::new(&graph, Box::new(burst));
        let mut net = crate::Network::new(graph.clone(), Box::new(rec), 3);
        let sends = RoundFrame::for_graph(&graph);
        let mut rx = RoundFrame::for_graph(&graph);
        for _ in 0..10 {
            net.step_into(&sends, None, &mut rx);
        }
        assert_eq!(net.stats().corruptions, 3);
        assert_eq!(net.stats().dropped_corruptions, 2, "burst overshoots");
        let script = sink.borrow().clone();
        // Silence + additive 1 = insertion of a 0; e recovered as 1.
        assert_eq!(
            script,
            (3..6)
                .map(|round| ScriptStep { round, lid, e: 1 })
                .collect::<Vec<_>>()
        );
        // Replaying the sink reproduces the applied corruptions with a
        // clean budget ledger.
        let replay = ScriptedAdversary::new(&graph, script);
        let mut net = crate::Network::new(graph.clone(), Box::new(replay), 3);
        let mut rx = RoundFrame::for_graph(&graph);
        for _ in 0..10 {
            net.step_into(&sends, None, &mut rx);
        }
        assert_eq!(net.stats().corruptions, 3);
        assert_eq!(net.stats().dropped_corruptions, 0);
    }

    #[test]
    fn seed_aware_idle_without_view() {
        let g = PhaseGeometry {
            setup: 0,
            meeting_points: 1,
            flag_passing: 1,
            simulation: 5,
            rewind: 1,
        };
        let graph = topology::line(4);
        let mut a = SeedAwareCollision::new(g, 3, 1);
        let sends = RoundFrame::for_graph(&graph);
        assert!(a
            .corrupt(3, Sends::Frame(&sends), u64::MAX, None)
            .is_empty());
        assert!(!a.is_oblivious());
    }
}
