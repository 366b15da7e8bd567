//! Experiment harness: declarative trial specs, Monte-Carlo runs
//! (served by the `serve` crate's worker pool), the simulation-service
//! job, and the artifact layer behind every table/figure in
//! EXPERIMENTS.md.
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
//!   triple, run inline, returning a [`TrialResult`] outcome row.
//! - A **service request** ([`SimRequest`]) is the same spec triple plus
//!   a seed, shipped to the `serve` crate's resident worker pool —
//!   [`sim_service`] wires the two crates together, and a worker runs
//!   the request through [`run_trial_serviced`] with its pooled scratch
//!   and the service's shared artifact cache.
//! - A **batch** ([`run_many`]) is a closed-loop client of one such
//!   service sized to the batch: trial `i` is submitted with seed
//!   [`derive_trial_seed`]`(base, i)`, and the rows, in trial order,
//!   fold into a [`Summary`].
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
    run_trial_recording, run_trial_serviced, RecordedTrial, Summary, TrialResult,
};
pub use search::{
    record_seed, run_search, targets, SearchConfig, SearchMetric, SearchTarget, TargetReport,
};
pub use service::{sim_service, SimRequest};
pub use spec::{AttackSpec, FaultSpec, Scheme, TopoSpec, WorkloadSpec};
