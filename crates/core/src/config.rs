//! Scheme configurations: Algorithms A, B and C as parameter presets.

use crate::fault::FaultPlan;
use netgraph::Graph;

/// Where the hash seeds come from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RandomnessMode {
    /// Pre-shared uniform common random string (Theorem 1.1 / Appendix B).
    /// `adversary_knows_seeds` decides whether the non-oblivious oracle may
    /// read them: Algorithm A assumes an adversary oblivious to the CRS;
    /// Algorithm C assumes a non-oblivious adversary that still cannot see
    /// the CRS.
    Crs {
        /// Master seed of the shared PRG.
        master: u64,
        /// Whether the seed-aware oracle is allowed to read hash seeds.
        adversary_knows_seeds: bool,
    },
    /// No pre-shared randomness (Theorem 1.2): each link exchanges a
    /// 128-bit seed over the noisy network (Algorithm 5), protected by a
    /// Reed–Solomon code repeated `code_repetitions` times, then expands it
    /// with the chosen expansion. Everything that crossed the wire is known
    /// to a non-oblivious adversary, so the oracle may read these seeds.
    Exchanged {
        /// How the 128-bit seed is stretched into per-hash seed streams.
        expansion: SeedExpansion,
        /// Codeword repetitions; raising this makes corrupting one
        /// exchange cost Θ(repetitions) corruptions (Claim 5.16's
        /// Θ(|Π|)-cost requirement).
        code_repetitions: usize,
    },
}

/// Expansion of an exchanged 128-bit seed into hash-seed streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedExpansion {
    /// The paper's δ-biased expansion (AGHP powering over GF(2^64),
    /// δ ≤ ℓ·2⁻⁶⁴). Information-theoretically faithful but ~50× slower
    /// than [`SeedExpansion::Prg`]; use for fidelity experiments (F7).
    Aghp,
    /// PRG expansion (xoshiro256**). A documented computational substitute
    /// for the δ-biased string: statistically it is not δ-biased, but no
    /// oblivious adversary in our experiment suite distinguishes the two.
    Prg,
}

/// Which transcript-hashing machinery the runner drives.
///
/// Both modes compute bit-identical hash values; they differ only in
/// cost. [`HashingMode::Reference`] exists to cross-check the incremental
/// path (see the `incremental_hashing` integration suite) and as the
/// executable specification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HashingMode {
    /// Per-link incremental sketches: appending a chunk extends a cached
    /// fold, each hash evaluation is `O(τ)`. The production path.
    #[default]
    Incremental,
    /// Recompute every sketch from the serialized transcript on every
    /// evaluation (`O(τ·|T|)`).
    Reference,
}

/// How much of the live execution the runner's [`netsim::AdaptiveView`]
/// reveals to a non-oblivious adversary.
///
/// This is orthogonal to [`crate::RunOptions`]'s `expose_view` (which
/// decides whether a view object exists at all): the class decides what
/// the view *answers*. Seed visibility is still governed separately by
/// [`RandomnessMode`] (Algorithm C hides the CRS from the oracle even at
/// full phase visibility).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdversaryClass {
    /// No live view is constructed, even if the run options would expose
    /// one — the oblivious additive model of §2.1.
    Oblivious,
    /// The pre-phase-aware surface: per-edge divergence, transcript
    /// lengths and the §6.1 collision oracle. Phase position, meeting
    /// point/flag/rewind state and the memory slot are withheld.
    SeedAware,
    /// Full phase visibility: everything in [`AdversaryClass::SeedAware`]
    /// plus phase position, per-endpoint meeting-point candidates, flag
    /// states, the rewind wave's active set, and the cross-iteration
    /// memory slot. The default — experiments that want a weaker
    /// adversary dial it down.
    #[default]
    PhaseAware,
}

/// Which wire-round machinery the runner drives for phases whose rounds
/// are independent (meeting points, randomness exchange).
///
/// Both modes produce byte-identical [`crate::SimOutcome`]s (cross-checked
/// by the `wire_batch` integration suite); they differ only in cost.
/// [`WireMode::Reference`] is the executable specification; the batched
/// path is the production path for large topologies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WireMode {
    /// Word-level batches: a phase's independent rounds go through one
    /// `netsim::Network::step_rounds_into` call, each link's multi-round
    /// message marshalled into words once. The production path.
    #[default]
    Batched,
    /// Bit-serial rounds: one `step_into` per wire round, every link bit
    /// set individually (the pre-batching hot path, kept as the reference).
    Reference,
}

/// Intra-trial thread budget for the link-sharded phases (meeting-points
/// hash preparation, chunk-commit transcript appends).
///
/// Every mode produces byte-identical [`crate::SimOutcome`]s: per-link
/// seed streams are [`netgraph::LinkId`]-indexed, so workers own disjoint
/// link shards and write disjoint state regardless of scheduling (the
/// `parallel_equivalence` integration suite cross-checks this). The knob
/// trades only wall-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Everything on the caller's thread. The default, so existing
    /// byte-identity suites and single-trial callers are unaffected.
    #[default]
    Serial,
    /// Exactly `n` worker threads per parallel region (`Threads(0)` and
    /// `Threads(1)` degrade to [`Parallelism::Serial`]).
    Threads(usize),
    /// The `SIM_THREADS` environment variable if set, otherwise
    /// [`std::thread::available_parallelism`].
    Auto,
}

impl Parallelism {
    /// The effective thread count: `Serial` → 1, `Threads(n)` → `max(n, 1)`,
    /// `Auto` → `SIM_THREADS` or the machine's available parallelism.
    pub fn resolve(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => sim_threads_env().unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            }),
        }
    }
}

/// The `SIM_THREADS` override, if set to a positive integer. Read through
/// [`Parallelism::resolve`] for the one thread-budget rule (`Auto`):
/// the intra-trial pool, `serve`'s default worker count and
/// `bench::run_many`'s worker × intra-trial split all resolve it there.
pub fn sim_threads_env() -> Option<usize> {
    std::env::var("SIM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Full parameterization of the coding scheme.
#[derive(Clone, Debug)]
pub struct SchemeConfig {
    /// The paper's `K` (chunk = 5K bits). Must be a positive multiple of
    /// `m` and at least `m`.
    pub k_param: usize,
    /// Hash output length τ per hash value.
    pub hash_bits: u32,
    /// Iterations = ceil(`iteration_factor` × |Π|) + `extra_iterations`.
    /// The theory uses factor 100 for worst-case guarantees; experiments
    /// default lower and sweep it.
    pub iteration_factor: f64,
    /// Additive slack iterations.
    pub extra_iterations: usize,
    /// Rounds of the rewind phase (the paper uses `n`; its footnote 8
    /// permits the diameter instead).
    pub rewind_rounds: usize,
    /// Seed provisioning.
    pub randomness: RandomnessMode,
    /// Ablation: disable the flag-passing phase (parties use only their
    /// local status; the phase's rounds still elapse so the geometry is
    /// unchanged). Used by experiment F4.
    pub disable_flag_passing: bool,
    /// Ablation: disable the rewind phase (rounds elapse, nobody rewinds).
    pub disable_rewind: bool,
    /// Transcript-hashing machinery (incremental vs. reference; identical
    /// hash values either way).
    pub hashing: HashingMode,
    /// Wire-round machinery for independent-round phases (batched vs.
    /// bit-serial reference; identical outcomes either way).
    pub wire: WireMode,
    /// How much live state the adaptive view reveals (phase visibility
    /// knob; seed visibility stays with [`RandomnessMode`]).
    pub adversary_class: AdversaryClass,
    /// Intra-trial thread budget for the link-sharded phases (byte-
    /// identical outcomes in every mode; wall-clock only).
    pub parallelism: Parallelism,
    /// Deterministic link/party fault schedule injected at the wire level
    /// (empty by default — zero engine overhead when no faults are
    /// scheduled). See [`FaultPlan`] for the degradation semantics.
    pub faults: FaultPlan,
}

impl SchemeConfig {
    /// **Algorithm A** (Theorem 1.1): CRS, oblivious adversary, `K = m`,
    /// constant hash length. Resilient to ε/m noise.
    pub fn algorithm_a(graph: &Graph, crs_master: u64) -> Self {
        let m = graph.edge_count();
        SchemeConfig {
            k_param: m,
            hash_bits: 8,
            iteration_factor: 3.0,
            extra_iterations: 10,
            rewind_rounds: graph.node_count(),
            randomness: RandomnessMode::Crs {
                master: crs_master,
                adversary_knows_seeds: true,
            },
            disable_flag_passing: false,
            disable_rewind: false,
            hashing: HashingMode::default(),
            wire: WireMode::default(),
            adversary_class: AdversaryClass::default(),
            parallelism: Parallelism::default(),
            faults: FaultPlan::default(),
        }
    }

    /// **Algorithm B** (Theorem 1.2): no shared randomness, non-oblivious
    /// adversary, `K = m·⌈log₂ m⌉`, `τ = Θ(log m)`. Resilient to
    /// ε/(m log m) noise.
    pub fn algorithm_b(graph: &Graph, proto_chunks_hint: usize) -> Self {
        let m = graph.edge_count();
        let log_m = usize::max(1, (m as f64).log2().ceil() as usize);
        SchemeConfig {
            k_param: m * log_m,
            hash_bits: u32::max(8, 3 * log_m as u32).min(60),
            iteration_factor: 3.0,
            extra_iterations: 10,
            rewind_rounds: graph.node_count(),
            randomness: RandomnessMode::Exchanged {
                expansion: SeedExpansion::Prg,
                code_repetitions: usize::max(1, proto_chunks_hint / 8),
            },
            disable_flag_passing: false,
            disable_rewind: false,
            hashing: HashingMode::default(),
            wire: WireMode::default(),
            adversary_class: AdversaryClass::default(),
            parallelism: Parallelism::default(),
            faults: FaultPlan::default(),
        }
    }

    /// **Algorithm C** (Appendix B): CRS *hidden from the adversary*,
    /// non-oblivious noise, `K = m·⌈log log m⌉`, `τ = Θ(log log m)`.
    /// Resilient to ε/(m log log m) noise.
    pub fn algorithm_c(graph: &Graph, crs_master: u64) -> Self {
        let m = graph.edge_count();
        let loglog = f64::max(1.0, (f64::max(2.0, (m as f64).log2())).log2()).ceil() as usize;
        SchemeConfig {
            k_param: m * loglog,
            hash_bits: u32::max(8, 4 * loglog as u32).min(60),
            iteration_factor: 3.0,
            extra_iterations: 10,
            rewind_rounds: graph.node_count(),
            randomness: RandomnessMode::Crs {
                master: crs_master,
                adversary_knows_seeds: false,
            },
            disable_flag_passing: false,
            disable_rewind: false,
            hashing: HashingMode::default(),
            wire: WireMode::default(),
            adversary_class: AdversaryClass::default(),
            parallelism: Parallelism::default(),
            faults: FaultPlan::default(),
        }
    }

    /// Chunk size `5K` in bits.
    pub fn chunk_bits(&self) -> usize {
        5 * self.k_param
    }

    /// Validates the configuration against a graph.
    ///
    /// # Panics
    ///
    /// Panics if `K` is not a positive multiple of `m`, `τ` is out of
    /// range, or the iteration parameters are non-positive.
    pub fn validate(&self, graph: &Graph) {
        let m = graph.edge_count();
        assert!(m > 0, "graph has no links");
        assert!(
            self.k_param >= m && self.k_param % m == 0,
            "K = {} must be a positive multiple of m = {m}",
            self.k_param
        );
        assert!((1..=60).contains(&self.hash_bits), "hash_bits out of range");
        assert!(self.iteration_factor > 0.0);
        assert!(self.rewind_rounds >= 1);
    }

    /// Number of iterations for a protocol with `real_chunks` chunks.
    pub fn iterations(&self, real_chunks: usize) -> usize {
        (self.iteration_factor * real_chunks.max(1) as f64).ceil() as usize + self.extra_iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::topology;

    #[test]
    fn preset_a_valid() {
        let g = topology::clique(6);
        let cfg = SchemeConfig::algorithm_a(&g, 7);
        cfg.validate(&g);
        assert_eq!(cfg.k_param, g.edge_count());
        assert_eq!(cfg.chunk_bits(), 5 * g.edge_count());
    }

    #[test]
    fn preset_b_scales_hash_with_m() {
        let small = topology::ring(4);
        let big = topology::clique(12);
        let a = SchemeConfig::algorithm_b(&small, 10);
        let b = SchemeConfig::algorithm_b(&big, 10);
        a.validate(&small);
        b.validate(&big);
        assert!(b.hash_bits >= a.hash_bits);
        assert!(b.k_param > big.edge_count(), "K = m log m");
    }

    #[test]
    fn preset_c_hides_seeds() {
        let g = topology::grid(3, 3);
        let cfg = SchemeConfig::algorithm_c(&g, 1);
        cfg.validate(&g);
        match cfg.randomness {
            RandomnessMode::Crs {
                adversary_knows_seeds,
                ..
            } => assert!(!adversary_knows_seeds),
            _ => panic!("C uses a CRS"),
        }
    }

    #[test]
    fn iterations_scale() {
        let g = topology::ring(5);
        let cfg = SchemeConfig::algorithm_a(&g, 0);
        assert!(cfg.iterations(10) > cfg.iterations(1));
    }

    #[test]
    #[should_panic(expected = "multiple of m")]
    fn validate_rejects_bad_k() {
        let g = topology::ring(5);
        let mut cfg = SchemeConfig::algorithm_a(&g, 0);
        cfg.k_param = 7;
        cfg.validate(&g);
    }
}
