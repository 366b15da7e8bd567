//! `noisy_sweep`: Monte-Carlo sweep points through both executors.
//!
//! Why: this is the paper's experiment shape — many short trials per
//! (scheme, noise, topology) point. It stresses `bench`'s `run_many`
//! executor (thread budget = nproc), adversary construction and
//! corruption (`netsim`), meeting-point resets and rewind truncations
//! (transcript truncation beside appends), scheme B's Algorithm 5
//! randomness exchange (`rscode`), and fault masking. Every other pass
//! runs the same trials through the second executor, a `SimService` with
//! default workers (each point's trials submitted together, replies
//! collected in order), so `serve`'s queueing, handoff and per-request
//! set-up are measured on trials long enough (milliseconds) to time
//! steadily, and served rows must equal `run_many`'s. Transcripts are
//! short, so the sketch kernel is a smaller share of a run than on
//! `large_clean`.

use crate::common::{mean, ms, peak_rss_mb, quantile, Report, Spec};
use crate::served_mix::{check_replies, serve_metrics, shutdown_checked, sim_request, Sample};
use crate::trace::{self, Tracer, TrialCounts};
use bench::{
    derive_trial_seed, run_many_faulted, sim_service, AttackSpec, FaultSpec, Scheme, SimRequest,
    TopoSpec, TrialResult, WorkloadSpec,
};
use mpic::{ArtifactCache, Parallelism, RunScratch};
use serve::{Priority, ServiceConfig, SimService, Ticket};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Trials per sweep point (one `run_many_faulted` call).
const TRIALS: usize = 8;
const SETUP_REPS: usize = 7;

/// The sweep points, in the order one pass runs them.
pub fn points() -> Vec<Spec> {
    let mut out = Vec::new();
    for topo in [TopoSpec::Ring(64), TopoSpec::Grid(8, 8)] {
        let w = WorkloadSpec::Gossip { topo, rounds: 2 };
        let m = topo.build(0).edge_count() as f64;
        let iid = AttackSpec::Iid {
            fraction: 0.005 / m,
        };
        for scheme in [Scheme::A, Scheme::B, Scheme::C] {
            out.push(Spec::new(w, scheme, iid.clone()));
        }
        for scheme in [Scheme::A, Scheme::C] {
            out.push(Spec::new(
                w,
                scheme,
                AttackSpec::SeedAware { per_iteration: 2 },
            ));
        }
        let mut churn = Spec::new(w, Scheme::A, AttackSpec::None);
        churn.fault = FaultSpec::Churn {
            link_rate: 0.1,
            crash_rate: 0.05,
            outage_frac: 0.02,
        };
        out.push(churn);
    }
    out
}

fn sweep_point(spec: &Spec, trials: usize, base: u64) -> Vec<TrialResult> {
    run_many_faulted(
        spec.workload,
        spec.scheme,
        spec.attack.clone(),
        spec.fault,
        trials,
        base,
    )
    .1
}

/// `run_many_faulted`'s executor with every trial traced: the same
/// thread split, per-point cache, per-worker scratch and trial seeds.
fn traced_point(
    spec: &Spec,
    base: u64,
    spans: &mut Vec<trace::Span>,
) -> Vec<(TrialResult, TrialCounts)> {
    let budget = mpic::sim_threads_env()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    let threads = budget.min(TRIALS);
    let intra = Parallelism::Threads((budget / threads).max(1));
    let cache = ArtifactCache::new();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![None; TRIALS]);
    let tracers: Vec<Tracer> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut tr = Tracer::default();
                    let mut scratch = RunScratch::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= TRIALS {
                            break;
                        }
                        let seed = derive_trial_seed(base, i);
                        let r =
                            trace::traced_trial(spec, seed, &mut scratch, intra, &cache, &mut tr);
                        results.lock().expect("no worker panicked")[i] = Some(r);
                    }
                    tr
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    for t in tracers {
        let off = spans.len();
        spans.extend(t.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + off);
            s
        }));
    }
    results
        .into_inner()
        .expect("no worker panicked")
        .into_iter()
        .map(|r| r.expect("every trial ran"))
        .collect()
}

/// One sweep point through the service: the point's trials are submitted
/// together and their replies collected in trial order, so the rows line
/// up with `run_many_faulted`'s. A reply's latency runs from its submit
/// to its collection.
fn served_point(
    svc: &SimService<SimRequest>,
    spec: &Spec,
    trials: usize,
    base: u64,
    rep: &mut Report,
    samples: &mut Vec<Sample<TrialResult>>,
) -> Vec<TrialResult> {
    let tickets: Vec<_> = (0..trials)
        .map(|i| {
            let req = sim_request(spec.clone(), derive_trial_seed(base, i));
            let t_sub = Instant::now();
            let ticket = svc.submit(req, Priority::Normal);
            (t_sub, t_sub.elapsed().as_nanos() as u64, ticket)
        })
        .collect();
    let mut rows = Vec::with_capacity(trials);
    for (i, (t_sub, submit_ns, ticket)) in tickets.into_iter().enumerate() {
        match ticket.map(Ticket::wait) {
            Ok(Ok(resp)) => {
                let e2e_ns = t_sub.elapsed().as_nanos() as u64;
                let (queue_ns, exec_ns) = (resp.queue_ns, resp.exec_ns);
                match resp.outcome.done() {
                    Some(row) => {
                        rows.push(row);
                        samples.push(Sample {
                            j: i,
                            late_ns: 0,
                            submit_ns,
                            e2e_ns,
                            queue_ns,
                            exec_ns,
                            out: row,
                        });
                    }
                    None => rep.fail(format!("served trial {i} not done")),
                }
            }
            _ => rep.fail(format!("served trial {i} refused or lost")),
        }
    }
    rows
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut rep = Report::default();
    let points = points();
    let bases: Vec<u64> = (0..points.len())
        .map(|p| derive_trial_seed(seed, p))
        .collect();

    // Set-up: one cold single-trial pass through `run_many` (a fresh
    // cache, compile and scratch per point, as every call pays), then a
    // service start and one cold single-trial pass through it.
    let mut setups = Vec::new();
    let mut svc: Option<SimService<SimRequest>> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = svc.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        for (p, spec) in points.iter().enumerate() {
            let rows = sweep_point(spec, 1, bases[p]);
            rep.check_row(spec, &rows[0], "set-up trial");
        }
        let s = sim_service(ServiceConfig::default());
        for (p, spec) in points.iter().enumerate() {
            for row in served_point(&s, spec, 1, bases[p], &mut rep, &mut Vec::new()) {
                rep.check_row(spec, &row, "served set-up trial");
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
        svc = Some(s);
    }
    let svc = svc.expect("set-up ran");
    rep.set("setup_s", quantile(&setups, 0.5));

    // Even passes run `run_many_faulted`, odd passes the service. With
    // tracing, each sweep point is followed by a traced replay of the same
    // point, so drift of the host over the run hits both alike.
    let mut first: Vec<Vec<TrialResult>> = Vec::new();
    let mut samples = Vec::new();
    let mut lat = Vec::new();
    let mut traced_lat = Vec::new();
    let mut spans = Vec::new();
    let mut counts = Vec::new();
    let mut trials = 0usize;
    let mut cc = 0u64;
    let mut busy = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pass = 0;
    while pass == 0 || Instant::now() < deadline {
        for (p, spec) in points.iter().enumerate() {
            let t0 = Instant::now();
            let rows = if pass % 2 == 0 {
                sweep_point(spec, TRIALS, bases[p])
            } else {
                served_point(&svc, spec, TRIALS, bases[p], &mut rep, &mut samples)
            };
            let dt = t0.elapsed();
            lat.push(ms(dt));
            busy += dt.as_secs_f64();
            trials += rows.len();
            rep.attempted += rows.len() as u64;
            for row in &rows {
                cc += row.cc;
                rep.check_row(spec, row, "sweep trial");
            }
            if pass == 0 {
                first.push(rows);
            } else if rows != first[p] {
                rep.fail(format!(
                    "pass {pass} point {p} differs from the first (run_many) pass"
                ));
            }
            if traced {
                let t0 = Instant::now();
                let out = traced_point(spec, bases[p], &mut spans);
                traced_lat.push(ms(t0.elapsed()));
                rep.attempted += out.len() as u64;
                let rows: Vec<TrialResult> = out.iter().map(|r| r.0).collect();
                if rows != first[p] {
                    rep.fail(format!("traced point {p} differs from the untraced rows"));
                }
                counts.extend(out.into_iter().map(|r| r.1));
            }
        }
        if pass == 0 {
            rep.set("peak_rss_mb", peak_rss_mb());
        }
        pass += 1;
    }
    serve_metrics(&mut rep, &svc, &samples);
    shutdown_checked(&mut rep, svc);
    check_replies(&mut rep, &samples);
    let population: Vec<TrialResult> = first.iter().flatten().copied().collect();
    rep.check_population("noisy_sweep", seed, &population);
    rep.set("latency_ms_p50", quantile(&lat, 0.5));
    rep.set("latency_ms_tail", quantile(&lat, 0.9));
    rep.set("trials_per_s", trials as f64 / busy);
    rep.set("sim_mbit_per_s", cc as f64 / busy / 1e6);
    rep.note(format!(
        "noisy_sweep: {pass} passes ({} through the service), {} sweep points, {trials} trials, \
         {busy:.2} s busy, tail = p90 ({} points beyond it)",
        pass / 2,
        lat.len(),
        lat.len() / 10
    ));

    if traced {
        trace::layer_metrics(&mut rep, &spans, &counts);
        rep.set("trace.overhead_frac", mean(&traced_lat) / mean(&lat) - 1.0);
        match trace::write_spans("noisy_sweep", seed, &spans) {
            Ok(p) => rep.note(format!("spans written to {p}")),
            Err(e) => rep.fail(format!("writing spans: {e}")),
        }
        let probe_spec = Spec::new(points[0].workload, Scheme::A, AttackSpec::None);
        trace::probe_metrics(&mut rep, &probe_spec, bases[0], 15);
    }
    rep
}
