//! Batched-wire equivalence: the word-level `FrameBatch` path and the
//! bit-serial `RoundFrame` path are interchangeable.
//!
//! Three layers of evidence:
//! * property tests that `FrameBatch ↔ RoundFrame` round-trips are
//!   lossless on arbitrary topologies, batch widths and send patterns;
//! * the engine delivers identically through `step_rounds_into` (one
//!   call) and N× `step_into` (sequential) under identical adversaries,
//!   including a scripted adversary that draws its budget down
//!   mid-batch, a composed `Pair`, and a `ScriptRecorder` whose two
//!   recordings must agree;
//! * full simulations are **byte-identical** between
//!   `WireMode::Batched` and `WireMode::Reference` across schemes
//!   (A/B/C), workloads, and adversaries — including noise aimed directly
//!   at the batched meeting-points rounds and the §6.1 seed-aware
//!   adaptive hunter.

use mpic::{RunOptions, SchemeConfig, Simulation, WireMode};
use netgraph::{topology, Graph};
use netsim::attacks::{
    BurstLink, IidNoise, Pair, PhaseTargeted, ScriptRecorder, ScriptedAdversary, SeedAwareCollision,
};
use netsim::{Adversary, FrameBatch, Network, PhaseKind, RoundFrame};
use proptest::prelude::*;
use protocol::workloads::{Gossip, TokenRing};
use protocol::Workload;
use smallbias::Xoshiro256;

fn pick_topology(which: usize, seed: u64) -> Graph {
    match which % 5 {
        0 => topology::ring(5),
        1 => topology::line(6),
        2 => topology::clique(5),
        3 => topology::grid(2, 3),
        _ => topology::random_connected(7, 11, seed),
    }
}

/// A batch of `rounds` random frames: each (link, round) slot is silent,
/// 0, or 1.
fn random_frames(g: &Graph, rounds: usize, rng: &mut Xoshiro256) -> Vec<RoundFrame> {
    (0..rounds)
        .map(|_| {
            let mut f = RoundFrame::for_graph(g);
            for id in 0..g.link_count() {
                match rng.next_u64() % 3 {
                    0 => {}
                    1 => f.set(id, false),
                    _ => f.set(id, true),
                }
            }
            f
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Frames → batch (set_round) → frames (round_into) is the identity,
    /// and per-slot `get` agrees with the source frames.
    #[test]
    fn batch_roundframe_roundtrip(which in 0usize..5, rounds in 1usize..80, seed in 0u64..10_000) {
        let g = pick_topology(which, seed);
        let mut rng = Xoshiro256::seeded(seed ^ 0xBA7C);
        let frames = random_frames(&g, rounds, &mut rng);
        let mut batch = FrameBatch::for_graph(&g, rounds);
        for (r, f) in frames.iter().enumerate() {
            batch.set_round(r, f);
        }
        prop_assert_eq!(
            batch.count_set(),
            frames.iter().map(RoundFrame::count_set).sum::<usize>()
        );
        let mut back = RoundFrame::for_graph(&g);
        for (r, f) in frames.iter().enumerate() {
            batch.round_into(r, &mut back);
            prop_assert_eq!(&back, f, "round {}", r);
            for id in 0..g.link_count() {
                prop_assert_eq!(batch.get(id, r), f.get(id));
            }
        }
    }

    /// Lane writes (`set_bits`) agree with per-round bit addressing and
    /// with `get_bits` read-back.
    #[test]
    fn batch_lane_write_matches_bit_view(rounds in 1usize..100, seed in 0u64..10_000) {
        let links = 5usize;
        let mut rng = Xoshiro256::seeded(seed ^ 0x1A9E);
        let mut batch = FrameBatch::new(links, rounds);
        let wpl = rounds.div_ceil(64);
        for id in 0..links {
            let nbits = (rng.next_u64() as usize) % (rounds + 1);
            let words: Vec<u64> = (0..wpl).map(|_| rng.next_u64()).collect();
            batch.set_bits(id, &words, nbits);
            for r in 0..rounds {
                let want = if r < nbits {
                    Some(words[r / 64] >> (r % 64) & 1 == 1)
                } else {
                    None
                };
                prop_assert_eq!(batch.get(id, r), want, "link {} round {}", id, r);
            }
            let mut v = vec![0u64; wpl];
            let mut p = vec![0u64; wpl];
            batch.get_bits(id, &mut v, &mut p, nbits);
            for r in 0..nbits {
                prop_assert_eq!(p[r / 64] >> (r % 64) & 1, 1);
                prop_assert_eq!(
                    v[r / 64] >> (r % 64) & 1 == 1,
                    words[r / 64] >> (r % 64) & 1 == 1
                );
            }
        }
    }

    /// One batched engine call equals N sequential calls under i.i.d.
    /// noise, including stats and budget draw-down.
    #[test]
    fn step_rounds_into_matches_sequential_fast_path(
        which in 0usize..5,
        rounds in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let g = pick_topology(which, seed);
        assert_batch_equals_sequential(
            &g,
            rounds,
            seed,
            Box::new(IidNoise::new(&g, 0.08, seed)),
            Box::new(IidNoise::new(&g, 0.08, seed)),
        )?;
    }

    /// The same equivalence for the adversaries whose per-round state
    /// matters most: a scripted adversary whose script outruns the budget
    /// of 10 (its own draw-down runs mid-batch), a `Pair` of an i.i.d.
    /// stream and a burst, and a `ScriptRecorder` around i.i.d. noise,
    /// whose batched and sequential recordings must be the same script.
    #[test]
    fn step_rounds_into_matches_sequential_scripted_pair_recorder(
        which in 0usize..5,
        rounds in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let g = pick_topology(which, seed);
        let max_round = 2 * rounds as u64;
        let scripted = || Box::new(ScriptedAdversary::random(&g, max_round, 30, seed));
        assert_batch_equals_sequential(&g, rounds, seed, scripted(), scripted())?;

        let link = g.link(seed as usize % g.link_count());
        let start = seed % max_round;
        let pair = || {
            Box::new(Pair(
                Box::new(IidNoise::new(&g, 0.05, seed)),
                Box::new(BurstLink::new(&g, link, start, rounds as u64)),
            ))
        };
        assert_batch_equals_sequential(&g, rounds, seed, pair(), pair())?;

        let (rec_seq, sink_seq) = ScriptRecorder::new(&g, Box::new(IidNoise::new(&g, 0.08, seed)));
        let (rec_batch, sink_batch) =
            ScriptRecorder::new(&g, Box::new(IidNoise::new(&g, 0.08, seed)));
        assert_batch_equals_sequential(&g, rounds, seed, Box::new(rec_seq), Box::new(rec_batch))?;
        prop_assert_eq!(&*sink_seq.borrow(), &*sink_batch.borrow());
    }
}

/// Drives the same random send batch through a sequentially-stepped
/// network and a batch-stepped network (tight budget, so draw-down and
/// drop accounting are exercised) and asserts identical receptions and
/// stats. Repeats for two consecutive batches so mid-stream adversary
/// state carries over correctly.
fn assert_batch_equals_sequential(
    g: &Graph,
    rounds: usize,
    seed: u64,
    adv_seq: Box<dyn Adversary>,
    adv_batch: Box<dyn Adversary>,
) -> Result<(), TestCaseError> {
    let budget = 10;
    let mut seq_net = Network::new(g.clone(), adv_seq, budget);
    let mut batch_net = Network::new(g.clone(), adv_batch, budget);
    let mut rng = Xoshiro256::seeded(seed ^ 0x57E9);
    for pass in 0..2 {
        let frames = random_frames(g, rounds, &mut rng);
        let mut tx_batch = FrameBatch::for_graph(g, rounds);
        for (r, f) in frames.iter().enumerate() {
            tx_batch.set_round(r, f);
        }
        let mut rx_batch = FrameBatch::for_graph(g, rounds);
        batch_net.step_rounds_into(&tx_batch, None, &mut rx_batch);
        let mut rx = RoundFrame::for_graph(g);
        let mut got = RoundFrame::for_graph(g);
        for (r, f) in frames.iter().enumerate() {
            seq_net.step_into(f, None, &mut rx);
            rx_batch.round_into(r, &mut got);
            prop_assert_eq!(&got, &rx, "pass {} round {}", pass, r);
        }
        prop_assert_eq!(seq_net.stats(), batch_net.stats(), "pass {}", pass);
        prop_assert_eq!(seq_net.remaining_budget(), batch_net.remaining_budget());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Full-run equivalence: WireMode::Batched vs WireMode::Reference.
// ---------------------------------------------------------------------

fn assert_outcomes_identical(a: &mpic::SimOutcome, b: &mpic::SimOutcome) {
    assert_eq!(a.stats, b.stats, "NetStats diverged between wire modes");
    assert_eq!(a.success, b.success);
    assert_eq!(a.transcripts_ok, b.transcripts_ok);
    assert_eq!(a.outputs_ok, b.outputs_ok);
    assert_eq!(a.payload_cc, b.payload_cc);
    assert_eq!(a.padded_cc, b.padded_cc);
    assert_eq!(a.blowup.to_bits(), b.blowup.to_bits());
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.g_star, b.g_star);
    assert_eq!(a.b_star, b.b_star);
    assert_eq!(
        a.instrumentation.hash_collisions,
        b.instrumentation.hash_collisions
    );
}

/// Runs the same (workload, config, adversary-builder) under both wire
/// modes and asserts byte-identical outcomes.
fn assert_modes_identical<W: Workload>(
    w: &W,
    cfg: SchemeConfig,
    trial_seed: u64,
    mk_adversary: impl Fn(&Simulation) -> Box<dyn Adversary>,
) -> mpic::SimOutcome {
    let mut reference_cfg = cfg.clone();
    reference_cfg.wire = WireMode::Reference;
    let mut batched_cfg = cfg;
    batched_cfg.wire = WireMode::Batched;
    let sim_ref = Simulation::new(w, reference_cfg, trial_seed);
    let sim_bat = Simulation::new(w, batched_cfg, trial_seed);
    let out_ref = sim_ref.run(mk_adversary(&sim_ref), RunOptions::default());
    let out_bat = sim_bat.run(mk_adversary(&sim_bat), RunOptions::default());
    assert_outcomes_identical(&out_ref, &out_bat);
    out_bat
}

/// Algorithm A (CRS) under i.i.d. noise: the batched meeting-points
/// rounds absorb corruptions identically.
#[test]
fn full_sim_identical_alg_a_iid() {
    let w = TokenRing::new(4, 3, 31);
    let g = w.graph().clone();
    for seed in 0..3 {
        assert_modes_identical(&w, SchemeConfig::algorithm_a(&g, 5), 8 + seed, |_| {
            Box::new(IidNoise::new(&g, 0.002, seed))
        });
    }
}

/// Algorithm B: the randomness-exchange prologue itself goes through the
/// batched step (and its seeds must decode identically under noise).
#[test]
fn full_sim_identical_alg_b_exchange_under_noise() {
    let w = Gossip::new(topology::ring(5), 5, 13);
    let g = w.graph().clone();
    for seed in 0..3 {
        assert_modes_identical(&w, SchemeConfig::algorithm_b(&g, 6), 21 + seed, |_| {
            Box::new(IidNoise::new(&g, 0.003, seed))
        });
    }
}

/// Noise aimed squarely at the batched phase: PhaseTargeted on the
/// meeting-points rounds.
#[test]
fn full_sim_identical_noise_inside_batched_phase() {
    let w = Gossip::new(topology::grid(2, 3), 4, 7);
    let g = w.graph().clone();
    for seed in 0..2 {
        assert_modes_identical(&w, SchemeConfig::algorithm_a(&g, 9), 40 + seed, |sim| {
            Box::new(PhaseTargeted::new(
                &g,
                sim.geometry(),
                PhaseKind::MeetingPoints,
                0.02,
                seed,
            ))
        });
    }
}

/// A burst crossing phase boundaries (rewind → meeting points) hits the
/// same wire bits in both modes.
#[test]
fn full_sim_identical_burst_across_phases() {
    let w = TokenRing::new(5, 2, 17);
    let g = w.graph().clone();
    let link = netgraph::DirectedLink { from: 1, to: 2 };
    assert_modes_identical(&w, SchemeConfig::algorithm_a(&g, 3), 55, |sim| {
        let geo = sim.geometry();
        // Start mid-rewind of iteration 0, run into iteration 1's
        // meeting points.
        let start = geo.phase_start(0, PhaseKind::Rewind) + 2;
        Box::new(BurstLink::new(&g, link, start, geo.rewind + 10))
    });
}

/// The §6.1 seed-aware adaptive hunter: asked (and idle) on every
/// batched round, and reading the live oracle during simulation rounds.
#[test]
fn full_sim_identical_seed_aware_adaptive() {
    let w = Gossip::new(topology::ring(4), 5, 3);
    let g = w.graph().clone();
    let out = assert_modes_identical(&w, SchemeConfig::algorithm_a(&g, 7), 77, |sim| {
        Box::new(SeedAwareCollision::new(sim.geometry(), g.edge_count(), 1))
    });
    // The hunter must actually have landed something for this test to
    // mean anything (alg A's constant τ is its prey).
    assert!(out.stats.corruptions > 0, "hunter never fired");
}

/// Hashing modes × wire modes: all four combinations agree (the two
/// reference/production axes are independent).
#[test]
fn full_sim_identical_all_mode_combinations() {
    let w = TokenRing::new(4, 2, 9);
    let g = w.graph().clone();
    let mut outs = Vec::new();
    for wire in [WireMode::Batched, WireMode::Reference] {
        for hashing in [mpic::HashingMode::Incremental, mpic::HashingMode::Reference] {
            let mut cfg = SchemeConfig::algorithm_a(&g, 11);
            cfg.wire = wire;
            cfg.hashing = hashing;
            let sim = Simulation::new(&w, cfg, 33);
            outs.push(sim.run(Box::new(IidNoise::new(&g, 0.002, 4)), RunOptions::default()));
        }
    }
    for o in &outs[1..] {
        assert_outcomes_identical(&outs[0], o);
    }
}

/// The F4 ablations (no flag passing / no rewind) also agree — the
/// disabled-rewind phase is itself batched.
#[test]
fn full_sim_identical_ablations() {
    let w = Gossip::new(topology::line(4), 4, 5);
    let g = w.graph().clone();
    for (dfp, drw) in [(true, false), (false, true), (true, true)] {
        let mut cfg = SchemeConfig::algorithm_a(&g, 13);
        cfg.disable_flag_passing = dfp;
        cfg.disable_rewind = drw;
        for seed in 0..2 {
            assert_modes_identical(&w, cfg.clone(), 60 + seed, |_| {
                Box::new(IidNoise::new(&g, 0.004, seed))
            });
        }
    }
}
