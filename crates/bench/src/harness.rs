//! Monte-Carlo trial runner.

use crate::service::{sim_service, SimRequest};
use crate::spec::{AttackSpec, FaultSpec, Scheme, WorkloadSpec};
use mpic::baseline::{run_no_coding, run_repetition};
use mpic::{ArtifactCache, Parallelism, RunOptions, RunScratch, SchemeConfig, Simulation};
use netgraph::Graph;
use netsim::attacks::{ScriptRecorder, ScriptStep};
use netsim::{Adversary, PhaseGeometry};
use serde::Serialize;
use serve::{Backpressure, Outcome, Priority, ServiceConfig};
use smallbias::splitmix64;

/// One trial's result row.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct TrialResult {
    /// Did the simulation reproduce the noiseless computation?
    pub success: bool,
    /// Total bits sent by honest parties.
    pub cc: u64,
    /// `CC(Π)` of the unpadded protocol.
    pub payload_cc: u64,
    /// Corruptions the adversary landed.
    pub corruptions: u64,
    /// Achieved noise fraction `corruptions / cc`.
    pub noise_fraction: f64,
    /// Communication blow-up `cc / payload_cc`.
    pub blowup: f64,
    /// Full-hash collisions observed (coding schemes only).
    pub hash_collisions: u64,
    /// Rounds consumed.
    pub rounds: u64,
    /// Numeric [`mpic::Verdict`] code (0 = decoded correct, 1 = noise
    /// overwhelmed, 2 = fault churn). For baselines: 0 on success, 1
    /// otherwise.
    pub degraded: u8,
    /// Scheduled link outage transitions applied (coding schemes only).
    pub links_downed: u64,
    /// Party-rounds spent crashed (coding schemes only).
    pub crash_rounds: u64,
    /// Rewind-wave truncations attributable to fault resync.
    pub resync_rewinds: u64,
    /// Meeting-points `k, E` resets (coding schemes only) — the repair
    /// restarts an attack inflicted; a term of the search fitness.
    pub mp_resets: u64,
    /// Iterations stalled by a poisoned flag wave (coding schemes only);
    /// a term of the search fitness.
    pub stalled_iterations: u64,
    /// Deepest rewind cascade observed (coding schemes only); a term of
    /// the search fitness.
    pub rewind_wave_depth: u64,
}

impl TrialResult {
    /// The adversary-search fitness numerator carried by this row:
    /// `mp_resets + stalled_iterations + rewind_wave_depth` (see
    /// [`mpic::Instrumentation::attack_damage`]).
    pub fn attack_damage(&self) -> u64 {
        self.mp_resets + self.stalled_iterations + self.rewind_wave_depth
    }
}

/// Aggregate over trials.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct Summary {
    /// Trials run.
    pub trials: usize,
    /// Fraction of successful trials.
    pub success_rate: f64,
    /// Mean communication blow-up.
    pub mean_blowup: f64,
    /// Mean achieved noise fraction.
    pub mean_noise_fraction: f64,
    /// Mean hash collisions per trial.
    pub mean_collisions: f64,
    /// Mean rounds.
    pub mean_rounds: f64,
}

impl Summary {
    /// Folds trial rows into a summary.
    pub fn from_trials(rows: &[TrialResult]) -> Summary {
        let n = rows.len().max(1) as f64;
        Summary {
            trials: rows.len(),
            success_rate: rows.iter().filter(|r| r.success).count() as f64 / n,
            mean_blowup: rows.iter().map(|r| r.blowup).sum::<f64>() / n,
            mean_noise_fraction: rows.iter().map(|r| r.noise_fraction).sum::<f64>() / n,
            mean_collisions: rows.iter().map(|r| r.hash_collisions as f64).sum::<f64>() / n,
            mean_rounds: rows.iter().map(|r| r.rounds as f64).sum::<f64>() / n,
        }
    }
}

/// Runs one trial: build workload, compile scheme, resolve attack, run.
///
/// The noise budget is `fraction-agnostic`: the adversary is capped at
/// `budget_fraction × predicted CC` corruptions when the attack spec
/// carries a fraction, otherwise left uncapped (pattern attacks bound
/// themselves).
///
/// This is the direct, inline path — a fresh cache and scratch, serial
/// hashing — and the oracle that served and batched trials are compared
/// against.
pub fn run_trial(
    workload: WorkloadSpec,
    scheme: Scheme,
    attack: AttackSpec,
    trial_seed: u64,
) -> TrialResult {
    run_trial_faulted(workload, scheme, attack, FaultSpec::None, trial_seed)
}

/// [`run_trial`] with a fault schedule injected alongside the attack.
pub fn run_trial_faulted(
    workload: WorkloadSpec,
    scheme: Scheme,
    attack: AttackSpec,
    fault: FaultSpec,
    trial_seed: u64,
) -> TrialResult {
    run_trial_serviced(
        workload,
        scheme,
        attack,
        fault,
        trial_seed,
        &mut RunScratch::new(),
        Parallelism::Serial,
        &ArtifactCache::new(),
    )
    .0
}

/// [`run_trial`] as a service worker runs it: reusing a caller-owned
/// scratch, an intra-trial thread budget, and a shared [`ArtifactCache`]
/// of precompiled structural artifacts. Returns the trial row plus
/// whether **every** artifact lookup hit the cache (schemes B and C look
/// up two entries: the 5m chunk-count hint and their own larger chunking).
///
/// Outcomes are byte-identical to [`run_trial`] with the same seed —
/// cached statics compile deterministically from structure alone, and
/// parallelism is a pure wall-clock knob.
#[allow(clippy::too_many_arguments)]
pub fn run_trial_serviced(
    workload: WorkloadSpec,
    scheme: Scheme,
    attack: AttackSpec,
    fault: FaultSpec,
    trial_seed: u64,
    scratch: &mut RunScratch,
    parallelism: Parallelism,
    cache: &ArtifactCache,
) -> (TrialResult, bool) {
    let w = workload.build(trial_seed.wrapping_mul(0x9e37_79b9) | 1);
    match scheme {
        Scheme::NoCoding | Scheme::Repetition(_) => {
            let g = w.graph().clone();
            let (statics, hit) = cache.get_or_compile(&*w, 5 * g.edge_count());
            let proto = &statics.proto;
            // Baselines execute exactly the real chunks.
            let rounds: u64 = (0..proto.real_chunks())
                .map(|c| proto.layout(c).round_count() as u64)
                .sum();
            let rep = if let Scheme::Repetition(r) = scheme {
                r
            } else {
                1
            };
            let cc_predict = (proto.real_chunks() * proto.chunk_bits()) as u64 * rep as u64;
            let geometry = netsim::PhaseGeometry {
                setup: 0,
                meeting_points: 0,
                flag_passing: 0,
                simulation: rounds.max(1) * rep as u64,
                rewind: 1,
            };
            let budget = attack_budget(&attack, cc_predict);
            let adversary = attack.build(&g, geometry, cc_predict, rounds * rep as u64, trial_seed);
            let out = match scheme {
                Scheme::NoCoding => run_no_coding(&*w, proto, adversary, budget),
                Scheme::Repetition(r) => run_repetition(&*w, proto, adversary, budget, r),
                _ => unreachable!(),
            };
            // Baselines have no meeting-point/rewind machinery to resync
            // through, so fault schedules are not modeled for them; a
            // failed baseline run reports degraded = 1 (noise).
            let row = TrialResult {
                success: out.success,
                cc: out.stats.cc,
                payload_cc: out.payload_cc,
                corruptions: out.stats.corruptions,
                noise_fraction: out.stats.noise_fraction(),
                blowup: out.blowup,
                hash_collisions: 0,
                rounds: out.stats.rounds,
                degraded: u8::from(!out.success),
                links_downed: 0,
                crash_rounds: 0,
                resync_rewinds: 0,
                mp_resets: 0,
                stalled_iterations: 0,
                rewind_wave_depth: 0,
            };
            (row, hit)
        }
        _ => {
            let g = w.graph().clone();
            // The chunk-count hint protocol (always 5m bits) and the
            // scheme's own statics (5·k_param bits — larger for B/C) are
            // separate cache entries; for Algorithm A they coincide.
            let (hint_statics, hint_hit) = cache.get_or_compile(&*w, 5 * g.edge_count());
            let hint = hint_statics.proto.real_chunks();
            let mut cfg = scheme.config(&g, hint, 0xc0de ^ trial_seed);
            cfg.parallelism = parallelism;
            let (statics, statics_hit) = if cfg.chunk_bits() == 5 * g.edge_count() {
                (hint_statics, hint_hit)
            } else {
                cache.get_or_compile(&*w, cfg.chunk_bits())
            };
            let mut sim = Simulation::with_statics(&*w, cfg, trial_seed, statics);
            let geometry = sim.geometry();
            let predicted_cc = sim.predicted_cc();
            let predicted_rounds =
                geometry.setup + sim.iterations() as u64 * geometry.iteration_rounds();
            // Fault plans scale to the predicted round horizon, which
            // needs the compiled geometry — hence the post-construction
            // setter rather than cfg.faults up front.
            if !matches!(fault, FaultSpec::None) {
                sim.set_fault_plan(fault.build(&g, predicted_rounds, trial_seed));
            }
            let budget = attack_budget(&attack, predicted_cc);
            let adversary = attack.build(&g, geometry, predicted_cc, predicted_rounds, trial_seed);
            let opts = RunOptions {
                noise_budget: budget,
                record_trace: false,
                expose_view: true,
            };
            let out = sim.run_with_scratch(adversary, opts, scratch);
            let row = TrialResult {
                success: out.success,
                cc: out.stats.cc,
                payload_cc: out.payload_cc,
                corruptions: out.stats.corruptions,
                noise_fraction: out.stats.noise_fraction(),
                blowup: out.blowup,
                hash_collisions: out.instrumentation.hash_collisions,
                rounds: out.stats.rounds,
                degraded: out.verdict.code(),
                links_downed: out.instrumentation.links_downed,
                crash_rounds: out.instrumentation.crash_rounds,
                resync_rewinds: out.instrumentation.resync_rewinds,
                mp_resets: out.instrumentation.mp_resets,
                stalled_iterations: out.instrumentation.stalled_iterations,
                rewind_wave_depth: out.instrumentation.rewind_wave_depth,
            };
            (row, hint_hit && statics_hit)
        }
    }
}

/// Per-trial seed of `run_many(base_seed, …)`'s trial `i` (public so load
/// drivers can replay the exact same trial population through a service).
pub fn derive_trial_seed(base_seed: u64, i: usize) -> u64 {
    trial_seed(base_seed, i)
}

/// One recorded trial: the outcome row of a hand-built (non-spec)
/// adversary plus the corruption script the engine actually applied and
/// the genome bounds of the run, for seeding the adversary search.
#[derive(Clone, Debug)]
pub struct RecordedTrial {
    /// The trial's outcome row.
    pub row: TrialResult,
    /// Exactly the corruptions the engine applied, as replayable steps;
    /// an [`AttackSpec::Scripted`] over them at the same seed reproduces
    /// `row` byte-for-byte (minus the budget ledger, which tightens to
    /// the script length).
    pub script: Vec<ScriptStep>,
    /// Predicted wire-round horizon of the compiled simulation — the
    /// genome's round bound.
    pub predicted_rounds: u64,
    /// Directed-link count — the genome's link-id bound.
    pub links: usize,
}

/// Runs one coding-scheme trial under a custom, hand-built adversary
/// (one not expressible as an [`AttackSpec`]), transcribing the
/// corruptions the engine applies into a replayable script.
///
/// This is the adversary-search seeding path: the returned script is a
/// [`crate::spec::AttackSpec::Scripted`] genome whose replay at
/// `trial_seed` inflicts the same instrumented damage as the hand-built
/// attack, so generation 0 of the search starts at parity with it.
///
/// Must run serially: the recorder's script sink is not `Send`.
/// Panics on baseline schemes (there is nothing phase-aware to record).
pub fn run_trial_recording<F>(
    workload: WorkloadSpec,
    scheme: Scheme,
    budget: u64,
    trial_seed: u64,
    build: F,
) -> RecordedTrial
where
    F: FnOnce(&Graph, PhaseGeometry, &SchemeConfig) -> Box<dyn Adversary>,
{
    assert!(
        !matches!(scheme, Scheme::NoCoding | Scheme::Repetition(_)),
        "recording needs a coding scheme"
    );
    let w = workload.build(trial_seed.wrapping_mul(0x9e37_79b9) | 1);
    let g = w.graph().clone();
    let cache = ArtifactCache::new();
    let (hint_statics, _) = cache.get_or_compile(&*w, 5 * g.edge_count());
    let hint = hint_statics.proto.real_chunks();
    let cfg = scheme.config(&g, hint, 0xc0de ^ trial_seed);
    let statics = if cfg.chunk_bits() == 5 * g.edge_count() {
        hint_statics
    } else {
        cache.get_or_compile(&*w, cfg.chunk_bits()).0
    };
    let sim = Simulation::with_statics(&*w, cfg.clone(), trial_seed, statics);
    let geometry = sim.geometry();
    let predicted_rounds = geometry.setup + sim.iterations() as u64 * geometry.iteration_rounds();
    let (recorder, sink) = ScriptRecorder::new(&g, build(&g, geometry, &cfg));
    let opts = RunOptions {
        noise_budget: budget,
        record_trace: false,
        expose_view: true,
    };
    let out = sim.run_with_scratch(Box::new(recorder), opts, &mut RunScratch::new());
    let row = TrialResult {
        success: out.success,
        cc: out.stats.cc,
        payload_cc: out.payload_cc,
        corruptions: out.stats.corruptions,
        noise_fraction: out.stats.noise_fraction(),
        blowup: out.blowup,
        hash_collisions: out.instrumentation.hash_collisions,
        rounds: out.stats.rounds,
        degraded: out.verdict.code(),
        links_downed: out.instrumentation.links_downed,
        crash_rounds: out.instrumentation.crash_rounds,
        resync_rewinds: out.instrumentation.resync_rewinds,
        mp_resets: out.instrumentation.mp_resets,
        stalled_iterations: out.instrumentation.stalled_iterations,
        rewind_wave_depth: out.instrumentation.rewind_wave_depth,
    };
    let script = sink.borrow().clone();
    RecordedTrial {
        row,
        script,
        predicted_rounds,
        links: g.links().len(),
    }
}

/// Sanitizes a noise fraction to `[0, 1]`: NaN reads as 0 and
/// out-of-range values clamp. Without this, a negative or NaN fraction
/// survives to the `as u64` cast in [`attack_budget`], which saturates to
/// 0 for negatives but maps any accidental `fraction * cc > u64::MAX`
/// arithmetic (or NaN) to an unintended budget.
fn clamped_fraction(fraction: f64) -> f64 {
    if fraction.is_nan() {
        0.0
    } else {
        fraction.clamp(0.0, 1.0)
    }
}

/// Budget rule: fraction-carrying attacks are capped at their fraction of
/// the predicted communication (with 50% slack for prediction error);
/// pattern attacks bound themselves. The fraction is validated first —
/// see [`clamped_fraction`].
fn attack_budget(attack: &AttackSpec, predicted_cc: u64) -> u64 {
    match attack {
        AttackSpec::Iid { fraction } => {
            debug_assert!(
                !fraction.is_nan() && (0.0..=1.0).contains(fraction),
                "attack fraction {fraction} outside [0, 1]"
            );
            ((clamped_fraction(*fraction) * 1.5) * predicted_cc as f64).ceil() as u64
        }
        // A script's budget is its length: every step that fires costs
        // exactly one corruption, so the engine ledger and the fitness
        // denominator agree by construction.
        AttackSpec::Scripted { steps } => steps.len() as u64,
        _ => u64::MAX,
    }
}

/// Derives trial `i`'s seed from `base_seed` with a splitmix64-style
/// mix, so distinct `(base_seed, i)` pairs land in unrelated streams.
///
/// The old `base_seed + i` rule made adjacent base seeds share almost
/// every per-trial RNG stream: `run_many(s, …)` trial `i+1` and
/// `run_many(s+1, …)` trial `i` were the *same* trial, silently
/// correlating sweeps that were meant to be independent replicas.
fn trial_seed(base_seed: u64, i: usize) -> u64 {
    let mut s = base_seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut s)
}

/// Runs `trials` trials concurrently and aggregates.
///
/// `run_many` is a closed-loop client of a [`serve::SimService`] sized to
/// the batch: the total thread budget ([`Parallelism::Auto`], i.e. the
/// `SIM_THREADS` override when set, otherwise the machine's available
/// parallelism) is split between **inter-trial** service workers — one
/// reusable [`RunScratch`] each, one [`ArtifactCache`] between them —
/// and **intra-trial** parallelism handed to each trial's simulation as
/// [`Parallelism::Threads`], which shards the per-link hash work inside
/// a single run. Many short trials → all budget goes to workers; fewer
/// trials than budget → the leftover threads speed up each trial.
/// Outcomes are byte-identical for every split, so the shape of the
/// budget never changes the statistics.
///
/// Per-trial seeds come from a splitmix64-style mix of
/// `(base_seed, index)`, so different base seeds share no trial streams.
///
/// # Panics
///
/// Panics if a trial panics (the service contains it as
/// [`Outcome::Failed`]; this re-raises it).
pub fn run_many(
    workload: WorkloadSpec,
    scheme: Scheme,
    attack: AttackSpec,
    trials: usize,
    base_seed: u64,
) -> (Summary, Vec<TrialResult>) {
    run_many_faulted(workload, scheme, attack, FaultSpec::None, trials, base_seed)
}

/// [`run_many`] with a fault schedule injected into every trial (each
/// trial's concrete plan is drawn from its own trial seed, so replicas
/// see independent churn).
pub fn run_many_faulted(
    workload: WorkloadSpec,
    scheme: Scheme,
    attack: AttackSpec,
    fault: FaultSpec,
    trials: usize,
    base_seed: u64,
) -> (Summary, Vec<TrialResult>) {
    let budget = Parallelism::Auto.resolve();
    let workers = budget.min(trials.max(1));
    let svc = sim_service(ServiceConfig {
        workers,
        queue_capacity: trials.max(1),
        backpressure: Backpressure::Block,
        parallelism: Parallelism::Threads(budget / workers),
    });
    let tickets: Vec<_> = (0..trials)
        .map(|i| {
            let req = SimRequest {
                workload,
                scheme,
                attack: attack.clone(),
                fault,
                seed: trial_seed(base_seed, i),
            };
            svc.submit(req, Priority::Normal)
                .expect("a running service accepts blocking submits")
        })
        .collect();
    // Collect newest-first: every reply buffers in its own channel, so
    // waiting on the last-queued trial first sleeps once for the batch
    // instead of waking per reply.
    let mut rows: Vec<TrialResult> = tickets
        .into_iter()
        .rev()
        .map(|t| match t.wait().map(|r| r.outcome) {
            Ok(Outcome::Done(row)) => row,
            other => panic!("trial did not complete: {other:?}"),
        })
        .collect();
    rows.reverse();
    svc.shutdown();
    (Summary::from_trials(&rows), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopoSpec;

    #[test]
    fn trial_noiseless_succeeds_all_schemes() {
        let w = WorkloadSpec::Gossip {
            topo: TopoSpec::Ring(4),
            rounds: 5,
        };
        for scheme in [
            Scheme::A,
            Scheme::B,
            Scheme::C,
            Scheme::NoCoding,
            Scheme::Repetition(3),
        ] {
            let r = run_trial(w, scheme, AttackSpec::None, 7);
            assert!(r.success, "{scheme:?} failed noiselessly");
            assert_eq!(r.corruptions, 0);
        }
    }

    #[test]
    fn parallel_runs_are_deterministic_per_seed() {
        let w = WorkloadSpec::TokenRing { n: 4, laps: 3 };
        let a = run_trial(w, Scheme::A, AttackSpec::Iid { fraction: 0.002 }, 3);
        let b = run_trial(w, Scheme::A, AttackSpec::Iid { fraction: 0.002 }, 3);
        assert_eq!(a.cc, b.cc);
        assert_eq!(a.success, b.success);
        assert_eq!(a.corruptions, b.corruptions);
    }

    #[test]
    fn run_many_aggregates() {
        let w = WorkloadSpec::TokenRing { n: 4, laps: 2 };
        let (s, rows) = run_many(w, Scheme::A, AttackSpec::None, 4, 10);
        assert_eq!(s.trials, 4);
        assert_eq!(rows.len(), 4);
        assert!((s.success_rate - 1.0).abs() < 1e-12);
        let (s, rows) = run_many(w, Scheme::A, AttackSpec::None, 0, 10);
        assert_eq!(s.trials, 0);
        assert!(rows.is_empty());
    }

    /// A trial that panics on a service worker comes back
    /// `Outcome::Failed`; `run_many` must re-raise it, not drop the row.
    #[test]
    #[should_panic(expected = "trial did not complete")]
    fn run_many_reraises_a_trial_panic() {
        let w = WorkloadSpec::TokenRing { n: 4, laps: 2 };
        // A link id past the graph's links panics inside the adversary.
        let steps = vec![ScriptStep {
            round: 0,
            lid: usize::MAX,
            e: 1,
        }];
        run_many(w, Scheme::A, AttackSpec::Scripted { steps }, 2, 10);
    }

    /// Adjacent base seeds must not share per-trial seeds (the old
    /// `base_seed + i` rule made `run_many(s)` and `run_many(s + 1)`
    /// overlap in all but one trial).
    #[test]
    fn adjacent_base_seeds_share_no_trial_streams() {
        let trials = 64usize;
        let a: std::collections::BTreeSet<u64> = (0..trials).map(|i| trial_seed(1000, i)).collect();
        let b: std::collections::BTreeSet<u64> = (0..trials).map(|i| trial_seed(1001, i)).collect();
        assert_eq!(a.len(), trials, "collisions within one base seed");
        assert_eq!(b.len(), trials, "collisions within one base seed");
        assert!(
            a.is_disjoint(&b),
            "base seeds 1000/1001 share trial seeds: {:?}",
            a.intersection(&b).collect::<Vec<_>>()
        );
    }

    #[test]
    fn faulted_trial_is_never_silently_wrong() {
        let w = WorkloadSpec::Gossip {
            topo: TopoSpec::Ring(4),
            rounds: 5,
        };
        let fault = FaultSpec::Churn {
            link_rate: 0.5,
            crash_rate: 0.25,
            outage_frac: 0.02,
        };
        let r = run_trial_faulted(w, Scheme::A, AttackSpec::None, fault, 11);
        // The verdict is explicit either way; success ⇔ degraded == 0.
        assert_eq!(r.success, r.degraded == 0);
        if !r.success {
            assert_eq!(r.degraded, 2, "faulted failures blame churn");
        }
        // Determinism: same spec + seed → identical row.
        assert_eq!(
            r,
            run_trial_faulted(w, Scheme::A, AttackSpec::None, fault, 11)
        );
        // The empty spec matches the unfaulted path exactly.
        assert_eq!(
            run_trial_faulted(w, Scheme::A, AttackSpec::None, FaultSpec::None, 11),
            run_trial(w, Scheme::A, AttackSpec::None, 11),
        );
        // Baselines document-ignore fault schedules.
        let b = run_trial_faulted(w, Scheme::NoCoding, AttackSpec::None, fault, 11);
        assert_eq!((b.links_downed, b.crash_rounds), (0, 0));
    }

    #[test]
    fn attack_budget_clamps_invalid_fractions() {
        let cc = 1_000_000u64;
        let at = |f: f64| attack_budget(&AttackSpec::Iid { fraction: f }, cc);
        // Boundary values map exactly.
        assert_eq!(at(0.0), 0);
        assert_eq!(at(1.0), (1.5 * cc as f64).ceil() as u64);
        assert_eq!(at(0.5), (0.75 * cc as f64).ceil() as u64);
        // Invalid inputs clamp instead of casting to garbage. (The
        // debug_assert flags them in dev builds, so exercise the clamp
        // helper directly.)
        assert_eq!(clamped_fraction(-0.25), 0.0);
        assert_eq!(clamped_fraction(f64::NAN), 0.0);
        assert_eq!(clamped_fraction(7.5), 1.0);
        assert_eq!(clamped_fraction(f64::INFINITY), 1.0);
        assert_eq!(clamped_fraction(f64::NEG_INFINITY), 0.0);
        // Pattern attacks stay uncapped.
        assert_eq!(attack_budget(&AttackSpec::None, cc), u64::MAX);
    }
}
