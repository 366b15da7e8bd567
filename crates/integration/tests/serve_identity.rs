//! Service determinism: a [`SimRequest`] answered by the worker-pool
//! service must be **byte-identical** to a direct [`run_trial`] with the
//! same `(specs, seed)` — whatever worker ran it, whether the artifact
//! cache was cold or warm, and whatever intra-trial [`Parallelism`] the
//! service grants. This is the acceptance gate of the serve subsystem:
//! caching and pooling are pure wall-clock optimizations.

use bench::{
    derive_trial_seed, run_many, run_trial, sim_service, AttackSpec, FaultSpec, Scheme, SimRequest,
    TopoSpec, TrialResult, WorkloadSpec,
};
use mpic::Parallelism;
use netsim::PhaseKind;
use serve::{Priority, ServiceConfig, Ticket};

fn schemes() -> Vec<Scheme> {
    vec![Scheme::A, Scheme::B, Scheme::C]
}

fn attacks() -> Vec<AttackSpec> {
    vec![
        AttackSpec::None,
        AttackSpec::Iid { fraction: 0.002 },
        AttackSpec::SeedAware { per_iteration: 1 },
        AttackSpec::Phase {
            phase: PhaseKind::MeetingPoints,
            prob: 0.01,
        },
    ]
}

fn workload() -> WorkloadSpec {
    WorkloadSpec::Gossip {
        topo: TopoSpec::Ring(4),
        rounds: 4,
    }
}

/// The full matrix, twice through one service (cold pass then warm pass):
/// every response equals the direct run, and the second pass hits cache.
#[test]
fn matrix_byte_identity_cold_and_warm() {
    for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
        let svc = sim_service(ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            parallelism,
            ..ServiceConfig::default()
        });
        for pass in 0..2 {
            let mut expected: Vec<(SimRequest, TrialResult)> = Vec::new();
            let mut tickets: Vec<Ticket<TrialResult>> = Vec::new();
            for (i, scheme) in schemes().into_iter().enumerate() {
                for (j, attack) in attacks().into_iter().enumerate() {
                    let req = SimRequest {
                        workload: workload(),
                        scheme,
                        attack,
                        fault: FaultSpec::None,
                        seed: 31 * (i as u64 + 1) + j as u64,
                    };
                    let want = run_trial(req.workload, scheme, req.attack.clone(), req.seed);
                    expected.push((req.clone(), want));
                    tickets.push(svc.submit(req, Priority::Normal).unwrap());
                }
            }
            for ((req, want), ticket) in expected.into_iter().zip(tickets) {
                let resp = ticket.wait().expect("reply lost");
                let got = resp.outcome.done().expect("not cancelled");
                assert_eq!(
                    got, want,
                    "pass {pass}, {parallelism:?}: service diverged on {req:?}"
                );
                if pass == 1 {
                    assert!(
                        resp.cache_hit,
                        "pass 1 should be cache-warm for {req:?} ({parallelism:?})"
                    );
                }
            }
        }
        let stats = svc.shutdown();
        // Ring(4) gossip is structurally fixed, so the cache holds one
        // entry per *distinct* chunking among 5m (the hint, = Algorithm
        // A's) and each scheme's 5·k_param. Compute rather than hardcode:
        // for small m the B/C chunkings can coincide with A's.
        let g = TopoSpec::Ring(4).build(1);
        let mut chunkings = std::collections::BTreeSet::from([5 * g.edge_count()]);
        for scheme in schemes() {
            chunkings.insert(scheme.config(&g, 1, 0).chunk_bits());
        }
        assert_eq!(
            stats.cache_entries,
            chunkings.len() as u64,
            "unexpected cache population"
        );
        // Misses can exceed the entry count when two workers race to
        // compile the same entry (one compilation is adopted, both count
        // as misses) — but every entry missed at least once, and the
        // warm pass guarantees hits.
        assert!(stats.cache_misses >= chunkings.len() as u64);
        assert!(stats.cache_hits > 0);
    }
}

/// Baseline schemes ride the same cache path.
#[test]
fn baselines_byte_identity() {
    let svc = sim_service(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServiceConfig::default()
    });
    for scheme in [Scheme::NoCoding, Scheme::Repetition(3)] {
        for attack in [AttackSpec::None, AttackSpec::Iid { fraction: 0.001 }] {
            let req = SimRequest {
                workload: WorkloadSpec::TokenRing { n: 4, laps: 2 },
                scheme,
                attack: attack.clone(),
                fault: FaultSpec::None,
                seed: 99,
            };
            let want = run_trial(req.workload, scheme, attack.clone(), req.seed);
            let got = svc
                .submit(req, Priority::Normal)
                .unwrap()
                .wait()
                .unwrap()
                .outcome
                .done()
                .unwrap();
            assert_eq!(got, want, "baseline {scheme:?}/{attack:?} diverged");
        }
    }
    svc.shutdown();
}

/// A `run_many` population replayed through the service row by row: the
/// public seed derivation plus the service reproduces the exact rows
/// (this is what `repro load --compare-raw` asserts at load), and each
/// row equals the direct inline trial at its derived seed.
#[test]
fn run_many_population_through_service() {
    let workload = WorkloadSpec::TokenRing { n: 4, laps: 2 };
    let scheme = Scheme::A;
    let attack = AttackSpec::Iid { fraction: 0.002 };
    let trials = 12;
    let (_, raw_rows) = run_many(workload, scheme, attack.clone(), trials, 2024);
    for (i, row) in raw_rows.iter().enumerate() {
        let direct = run_trial(workload, scheme, attack.clone(), derive_trial_seed(2024, i));
        assert_eq!(*row, direct, "run_many row {i} differs from run_trial");
    }

    let svc = sim_service(ServiceConfig {
        workers: 3,
        queue_capacity: trials,
        ..ServiceConfig::default()
    });
    let tickets: Vec<_> = (0..trials)
        .map(|i| {
            svc.submit(
                SimRequest {
                    workload,
                    scheme,
                    attack: attack.clone(),
                    fault: FaultSpec::None,
                    seed: derive_trial_seed(2024, i),
                },
                Priority::Normal,
            )
            .unwrap()
        })
        .collect();
    let service_rows: Vec<TrialResult> = tickets
        .into_iter()
        .map(|t| t.wait().unwrap().outcome.done().unwrap())
        .collect();
    assert_eq!(service_rows, raw_rows);
    svc.shutdown();
}

/// Random topologies fingerprint per-seed: structurally distinct trials
/// must not collide in the cache (each gets its own entries and still
/// matches the direct run).
#[test]
fn random_topology_per_seed_entries() {
    let svc = sim_service(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServiceConfig::default()
    });
    let workload = WorkloadSpec::Gossip {
        topo: TopoSpec::Random(6, 8),
        rounds: 3,
    };
    for seed in [1u64, 2, 3] {
        let req = SimRequest {
            workload,
            scheme: Scheme::A,
            attack: AttackSpec::None,
            fault: FaultSpec::None,
            seed,
        };
        let want = run_trial(req.workload, req.scheme, req.attack.clone(), seed);
        let got = svc
            .submit(req, Priority::Normal)
            .unwrap()
            .wait()
            .unwrap()
            .outcome
            .done()
            .unwrap();
        assert_eq!(got, want, "random topology seed {seed} diverged");
    }
    let stats = svc.shutdown();
    // Distinct seeds build distinct graphs → distinct fingerprints. (If
    // two seeds happened to build identical structures, caching them
    // together would still be correct; 3 entries just pins that these
    // three differ.)
    assert_eq!(stats.cache_entries, 3);
}
