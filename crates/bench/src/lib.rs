//! Experiment harness: declarative trial specs, Monte-Carlo runs
//! (crossbeam-parallel), the simulation-service job, and the artifact
//! layer behind every table/figure in EXPERIMENTS.md.
//!
//! The crate's vocabulary, bottom-up:
//!
//! - A **spec** ([`WorkloadSpec`], [`Scheme`], [`AttackSpec`]) is plain
//!   data naming a topology+protocol, a coding scheme, and an adversary.
//!   Specs are cloneable plain data (all `Copy` except [`AttackSpec`],
//!   which may carry a corruption script), serializable, and sufficient
//!   — together with one `u64` seed — to rebuild a simulation
//!   bit-for-bit anywhere.
//! - A **trial** ([`run_trial`]) is one seeded simulation of a spec
//!   triple, returning a [`TrialResult`] outcome row. A **job** is a
//!   batch of trials ([`run_many`]) fanned across crossbeam scoped
//!   workers, each worker deriving its own seed stream via
//!   [`derive_trial_seed`]; results fold into a [`Summary`].
//! - A **service request** ([`SimRequest`]) is the same spec triple
//!   shipped to the `serve` crate's resident worker pool instead of run
//!   inline — [`sim_service`] wires the two crates together, and
//!   [`run_trial_serviced`] round-trips one trial through it.
//! - A **report** ([`report`]) is the artifact layer: markdown tables,
//!   the `out/<tier>-<sha>/manifest.json` provenance record, and the
//!   outcome-exact / timing-tolerant expectation diffing behind
//!   `repro diff`.
//!
//! Binaries: `repro` (the one driver: tiered sweeps behind every
//! table/figure, expectation diffing, and `repro load`, the open-loop
//! load against the service; see EXPERIMENTS.md) and `benchcmp` (A/B
//! gate over bench JSON).

#![forbid(unsafe_code)]

pub mod harness;
pub mod report;
pub mod search;
pub mod service;
pub mod spec;

pub use harness::{
    derive_trial_seed, run_many, run_many_faulted, run_trial, run_trial_faulted,
    run_trial_faulted_with_scratch, run_trial_recording, run_trial_serviced,
    run_trial_with_scratch, RecordedTrial, Summary, TrialResult,
};
pub use search::{
    record_seed, run_search, targets, SearchConfig, SearchMetric, SearchTarget, TargetReport,
};
pub use service::{sim_service, SimRequest};
pub use spec::{AttackSpec, FaultSpec, Scheme, TopoSpec, WorkloadSpec};
