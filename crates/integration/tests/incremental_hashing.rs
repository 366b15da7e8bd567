//! Incremental-hashing equivalence: the incremental [`PrefixHasher`] fold, the
//! recompute-from-scratch [`sketch_prefix`] reference, and the classic
//! [`hash_prefix`] of Definition 2.2 must all agree wherever their domains
//! overlap — and a full coding-scheme run must be byte-identical whichever
//! backend drives it.
//!
//! Three layers of evidence:
//! * property tests that a `PrefixHasher` extended one transcript symbol
//!   at a time equals the reference at *every* prefix length, across τ
//!   values and seed slots, through truncation/regrowth churn;
//! * the ≤64-bit anchor: the sketch's word-interleaved seed layout
//!   coincides with `hash_prefix`'s stretch-major layout for single-word
//!   inputs, tying the sketch to the paper's hash;
//! * full scheme runs (CRS and exchanged randomness, noiseless and under
//!   noise) produce byte-identical `SimOutcome`s under
//!   `HashingMode::Incremental` and `HashingMode::Reference`.

use std::sync::Arc;

use mpic::{HashingMode, RunOptions, SchemeConfig, Simulation};
use netsim::attacks::{IidNoise, NoNoise, SingleError};
use proptest::prelude::*;
use protocol::workloads::{Gossip, TokenRing};
use protocol::Workload;
use smallbias::{
    hash_prefix, sketch_prefix, BitString, CrsSource, PrefixHasher, SeedLabel, SeedSource,
};

fn label(slot: u32) -> SeedLabel {
    SeedLabel {
        iteration: 0,
        channel: 5,
        slot,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Extending one 2-bit transcript symbol at a time matches the
    /// reference at every symbol boundary, for every τ and seed slot.
    #[test]
    fn hasher_matches_reference_at_every_prefix(
        syms in proptest::collection::vec(0u64..4, 1..120),
        tau in 1u32..65,
        slot in 0u32..4,
        master in 0u64..1000,
    ) {
        let src: Arc<dyn SeedSource> = Arc::new(CrsSource::new(master));
        let mut h = PrefixHasher::new(Arc::clone(&src), label(slot), tau);
        let mut bits = BitString::new();
        for &s in &syms {
            h.push_bits(s, 2);
            bits.push_bits(s, 2);
            prop_assert_eq!(
                h.digest(),
                sketch_prefix(&bits, bits.len(), tau, &mut *src.stream(label(slot)))
            );
        }
    }

    /// Same through checkpoint/truncate/regrow churn (the rewind +
    /// meeting-points rollback pattern).
    #[test]
    fn hasher_survives_truncation_churn(
        chunks in proptest::collection::vec(proptest::collection::vec(0u64..4, 1..6), 2..20),
        cut in 0usize..10,
        tau in 1u32..65,
        master in 0u64..1000,
    ) {
        let src: Arc<dyn SeedSource> = Arc::new(CrsSource::new(master));
        let mut h = PrefixHasher::new(Arc::clone(&src), label(2), tau);
        let mut boundaries = vec![0usize];
        let mut bits = BitString::new();
        let push = |h: &mut PrefixHasher, bits: &mut BitString, chunk: &[u64], id: u64| {
            h.push_bits(id, 32);
            bits.push_bits(id, 32);
            for &s in chunk {
                h.push_bits(s, 2);
                bits.push_bits(s, 2);
            }
            h.mark();
        };
        for (i, chunk) in chunks.iter().enumerate() {
            push(&mut h, &mut bits, chunk, i as u64);
            boundaries.push(bits.len());
        }
        // Truncate to an arbitrary chunk boundary and regrow differently.
        let keep = cut % chunks.len();
        h.truncate_to_mark(keep);
        bits.truncate(boundaries[keep]);
        push(&mut h, &mut bits, &[3, 0, 1], keep as u64);
        prop_assert_eq!(
            h.digest(),
            sketch_prefix(&bits, bits.len(), tau, &mut *src.stream(label(2)))
        );
        // Checkpointed prefixes still answer correctly after the churn.
        for k in 0..keep {
            let (d, len) = h.digest_at(k);
            prop_assert_eq!(len, boundaries[k + 1]);
            prop_assert_eq!(d, sketch_prefix(&bits, len, tau, &mut *src.stream(label(2))));
        }
    }

    /// The ≤64-bit anchor: for single-word inputs the sketch layout and
    /// `hash_prefix`'s stretch-major layout coincide, so the incremental
    /// fold reproduces the paper's inner-product hash exactly.
    #[test]
    fn hasher_matches_hash_prefix_on_single_word_inputs(
        n_bits in 1usize..65,
        tau in 1u32..65,
        slot in 0u32..4,
        master in 0u64..1000,
    ) {
        let src: Arc<dyn SeedSource> = Arc::new(CrsSource::new(master ^ 0xABCD));
        let bits: BitString = (0..n_bits).map(|i| (master >> (i % 64)) & 1 == 1).collect();
        let mut h = PrefixHasher::new(Arc::clone(&src), label(slot), tau);
        for i in 0..n_bits {
            h.push_bit(bits.bit(i));
        }
        prop_assert_eq!(
            h.digest(),
            hash_prefix(&bits, n_bits, tau, &mut *src.stream(label(slot)))
        );
    }
}

fn assert_outcomes_identical(a: &mpic::SimOutcome, b: &mpic::SimOutcome) {
    // `SimOutcome` derives Debug over every field (including the full
    // instrumentation trace), so equal debug renderings = byte-identical
    // outcomes.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

fn run_both_ways(
    w: &dyn Workload,
    mut cfg: SchemeConfig,
    trial_seed: u64,
    attack: impl Fn() -> Box<dyn netsim::Adversary>,
) {
    cfg.hashing = HashingMode::Incremental;
    let inc = Simulation::new(w, cfg.clone(), trial_seed).run(
        attack(),
        RunOptions {
            record_trace: true,
            ..Default::default()
        },
    );
    cfg.hashing = HashingMode::Reference;
    let reference = Simulation::new(w, cfg, trial_seed).run(
        attack(),
        RunOptions {
            record_trace: true,
            ..Default::default()
        },
    );
    assert_outcomes_identical(&inc, &reference);
}

/// Full scheme, CRS randomness, noiseless: byte-identical outcomes.
#[test]
fn full_run_identical_noiseless() {
    let w = TokenRing::new(4, 3, 11);
    let cfg = SchemeConfig::algorithm_a(w.graph(), 7);
    run_both_ways(&w, cfg, 3, || Box::new(NoNoise));
}

/// Under i.i.d. noise the meeting points, rollbacks and rewinds all fire —
/// the truncation path of the incremental fold must track exactly.
#[test]
fn full_run_identical_under_noise() {
    let w = Gossip::new(netgraph::topology::ring(5), 6, 13);
    let cfg = SchemeConfig::algorithm_a(w.graph(), 9);
    for seed in 0..3 {
        run_both_ways(&w, cfg.clone(), 100 + seed, || {
            Box::new(IidNoise::new(w.graph(), 0.002, seed))
        });
    }
}

/// A targeted single error exercises one clean divergence + repair cycle.
#[test]
fn full_run_identical_after_single_error() {
    let w = TokenRing::new(4, 3, 17);
    let cfg = SchemeConfig::algorithm_a(w.graph(), 5);
    let sim = Simulation::new(&w, cfg.clone(), 2);
    let round = sim.geometry().phase_start(1, netsim::PhaseKind::Simulation) + 2;
    run_both_ways(&w, cfg, 2, || {
        Box::new(SingleError::new(
            w.graph(),
            netgraph::DirectedLink { from: 0, to: 1 },
            round,
        ))
    });
}

/// Exchanged randomness (Algorithm B): the sketch seeds come from the
/// decoded 128-bit exchange, and both backends must read them identically.
#[test]
fn full_run_identical_exchanged_randomness() {
    let w = TokenRing::new(4, 2, 19);
    let cfg = SchemeConfig::algorithm_b(w.graph(), 3);
    run_both_ways(&w, cfg, 4, || Box::new(NoNoise));
}

/// The δ-biased AGHP expansion drives the same equivalence (regions are
/// carved per label; the sketch reads its region once vs. per query).
#[test]
fn full_run_identical_aghp_expansion() {
    let w = TokenRing::new(4, 2, 23);
    let mut cfg = SchemeConfig::algorithm_b(w.graph(), 3);
    if let mpic::RandomnessMode::Exchanged { expansion, .. } = &mut cfg.randomness {
        *expansion = mpic::SeedExpansion::Aghp;
    }
    run_both_ways(&w, cfg, 5, || Box::new(NoNoise));
}
