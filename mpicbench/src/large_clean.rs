//! `large_clean`: one large noiseless trial at a time, closed loop.
//!
//! Why: Algorithm A on a noiseless `Gossip{Ring(1024), rounds: 2}` is
//! where the GF(2) sketch kernel does most of a run's work and where the
//! intra-trial `WorkerPool` (`Parallelism::Threads(nproc)`) matters.
//! Stresses `core` (runner, transcripts, meeting points), `smallbias`
//! (through the sketch), `netsim` (wire batches) and `bench`'s
//! `run_trial_serviced` with a pooled `RunScratch` and a shared
//! `ArtifactCache`. Bypasses `serve`, the `run_many` executor, every
//! adversary and fault path, the repair path and `rscode`.

use crate::common::{mean, ms, peak_rss_mb, quantile, Report, Spec};
use crate::trace::{self, Tracer};
use bench::{derive_trial_seed, run_trial_serviced, AttackSpec, Scheme, TopoSpec, WorkloadSpec};
use mpic::{ArtifactCache, Parallelism, RunScratch};
use std::time::{Duration, Instant};

/// Distinct trial seeds; trial `i` replays seed `i % POPULATION`, so every
/// repeat must reproduce its first row exactly.
const POPULATION: usize = 4;
const SETUP_REPS: usize = 7;

fn spec() -> Spec {
    Spec::new(
        WorkloadSpec::Gossip {
            topo: TopoSpec::Ring(1024),
            rounds: 2,
        },
        Scheme::A,
        AttackSpec::None,
    )
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut rep = Report::default();
    let spec = spec();
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let par = Parallelism::Threads(threads);
    let seeds: Vec<u64> = (0..POPULATION)
        .map(|i| derive_trial_seed(seed, i))
        .collect();
    let trial = |scratch: &mut RunScratch, cache: &ArtifactCache, i: usize| {
        let s = &spec;
        run_trial_serviced(
            s.workload,
            s.scheme,
            s.attack.clone(),
            s.fault,
            seeds[i % POPULATION],
            scratch,
            par,
            cache,
        )
        .0
    };

    // Set-up: a cold cache and scratch until the first trial's row.
    let mut setups = Vec::new();
    let (mut cache, mut scratch) = (ArtifactCache::new(), RunScratch::new());
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        cache = ArtifactCache::new();
        scratch = RunScratch::new();
        let row = trial(&mut scratch, &cache, 0);
        setups.push(t0.elapsed().as_secs_f64());
        rep.check_row(&spec, &row, "set-up trial");
    }
    rep.set("setup_s", quantile(&setups, 0.5));

    // With tracing, each untraced trial is followed by a traced replay of
    // the same seed, so drift of the host over the run hits both alike.
    let mut pop = Vec::new();
    let mut lat = Vec::new();
    let mut traced_lat = Vec::new();
    let mut tr = Tracer::default();
    let mut counts = Vec::new();
    let mut cc = 0u64;
    let mut busy = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < POPULATION || Instant::now() < deadline {
        let t0 = Instant::now();
        let row = trial(&mut scratch, &cache, i);
        let dt = t0.elapsed();
        lat.push(ms(dt));
        busy += dt.as_secs_f64();
        cc += row.cc;
        rep.attempted += 1;
        rep.check_row(&spec, &row, "trial");
        if i < POPULATION {
            pop.push(row);
            if pop.len() == POPULATION {
                rep.set("peak_rss_mb", peak_rss_mb());
            }
        } else if row != pop[i % POPULATION] {
            rep.fail(format!("trial {i} differs from its first run"));
        }
        if traced {
            let t0 = Instant::now();
            let s = seeds[i % POPULATION];
            let (row, c) = trace::traced_trial(&spec, s, &mut scratch, par, &cache, &mut tr);
            traced_lat.push(ms(t0.elapsed()));
            rep.attempted += 1;
            if row != pop[i % POPULATION] {
                rep.fail(format!("traced trial {i} differs from the untraced row"));
            }
            counts.push(c);
        }
        i += 1;
    }
    rep.check_population("large_clean", seed, &pop);
    rep.set("latency_ms_p50", quantile(&lat, 0.5));
    rep.set("latency_ms_tail", quantile(&lat, 0.9));
    rep.set("trials_per_s", lat.len() as f64 / busy);
    rep.set("sim_mbit_per_s", cc as f64 / busy / 1e6);
    rep.note(format!(
        "large_clean: {} trials, {busy:.2} s busy, tail = p90 ({} beyond it)",
        lat.len(),
        lat.len() / 10
    ));

    if traced {
        trace::layer_metrics(&mut rep, &tr.spans, &counts);
        rep.set("trace.overhead_frac", mean(&traced_lat) / mean(&lat) - 1.0);
        match trace::write_spans("large_clean", seed, &tr.spans) {
            Ok(p) => rep.note(format!("spans written to {p}")),
            Err(e) => rep.fail(format!("writing spans: {e}")),
        }
        trace::probe_metrics(&mut rep, &spec, seeds[0], 7);
    }
    rep
}
