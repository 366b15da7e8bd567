//! `served_mix`: open-loop requests into `bench::sim_service`.
//!
//! Why: the workload where `serve`'s queueing, worker handoff and
//! per-request set-up (workload build, reference run, cache fingerprint)
//! are the largest share of a request. Requests are small A/B/C/NoCoding
//! trials on `Ring(4)`, `TokenRing(4)` and `Ring(16)`, some with i.i.d.
//! noise; every 8th is `Priority::High`. Bypasses the `run_many` executor
//! and the `large_clean` sketch-heavy geometry. Run by hand: its
//! sub-millisecond figures are too unsteady on a shared 2-vCPU host for
//! `BENCHMARK.json` (see README.md).
//!
//! One generator thread submits each request at its due instant
//! `start + j / RATE` and harvests replies with `Ticket::try_wait`.
//! Latency runs from the due instant, so a late generator or a stalled
//! submit counts against the service instead of hiding. (The `bencher`
//! bin starts its clock after `submit` returns, so the e2e columns of
//! `BENCH_serve.json` are not comparable with these.)

use crate::common::{mean, peak_rss_mb, quantile, Report, Spec};
use crate::trace::{self, Span, Tracer, TrialCounts};
use bench::{
    derive_trial_seed, run_trial, sim_service, AttackSpec, Scheme, SimRequest, TopoSpec,
    TrialResult, WorkloadSpec,
};
use serve::{Job, JobCtx, Outcome, Priority, ServiceConfig, SimService, Ticket};
use std::time::{Duration, Instant};

/// Offered rate of the open-loop phase, requests per second: about a
/// quarter of the two-worker capacity on a 2-vCPU host.
pub const RATE: f64 = 1000.0;
/// Open-loop latency is read per window of this many consecutive requests
/// (one second at `RATE`) and reported for the calmest window: on a
/// shared 2-vCPU host, stolen CPU time delays sub-millisecond requests by
/// whole scheduler quanta, and that noise only ever adds latency.
const WINDOW: usize = 1000;
/// Distinct (spec, seed) requests, 40 per request kind; request `j` is
/// population member `j % POPULATION` (a multiple of the rotation length
/// and of 8).
const POPULATION: usize = 280;
const SETUP_REPS: usize = 25;
/// Share of the run spent in the open-loop phase; the rest measures
/// capacity closed loop.
const OPEN_SHARE: f64 = 0.6;
/// The generator sleeps between reply polls for a pseudo-random 50–150
/// µs. A reply is timed when a poll finds it, so a fixed poll period
/// phase-locked to the due instants would quantize every latency to whole
/// poll periods (and flip quantiles between those levels from run to
/// run); the jitter spreads that error evenly instead.
fn poll_pause(state: &mut u64) -> Duration {
    Duration::from_micros(50 + smallbias::splitmix64(state) % 100)
}

pub fn rotation() -> Vec<Spec> {
    let ring4 = WorkloadSpec::Gossip {
        topo: TopoSpec::Ring(4),
        rounds: 5,
    };
    let token4 = WorkloadSpec::TokenRing { n: 4, laps: 2 };
    let ring16 = WorkloadSpec::Gossip {
        topo: TopoSpec::Ring(16),
        rounds: 2,
    };
    let iid = AttackSpec::Iid { fraction: 0.002 };
    vec![
        Spec::new(ring4, Scheme::A, AttackSpec::None),
        Spec::new(token4, Scheme::A, iid.clone()),
        Spec::new(ring4, Scheme::B, AttackSpec::None),
        Spec::new(ring16, Scheme::A, iid.clone()),
        Spec::new(token4, Scheme::C, AttackSpec::None),
        Spec::new(ring4, Scheme::NoCoding, AttackSpec::None),
        Spec::new(ring16, Scheme::C, iid),
    ]
}

/// The Ring(4) geometry whose sketch share the traced run reports.
pub fn ring4_probe_spec() -> Spec {
    rotation().swap_remove(0)
}

/// Request `j`: its spec, seed and priority.
fn request(rot: &[Spec], seed: u64, j: usize) -> (Spec, u64, Priority) {
    let k = j % POPULATION;
    let pri = if j % 8 == 7 {
        Priority::High
    } else {
        Priority::Normal
    };
    (rot[k % rot.len()].clone(), derive_trial_seed(seed, k), pri)
}

pub fn sim_request(spec: Spec, seed: u64) -> SimRequest {
    SimRequest {
        workload: spec.workload,
        scheme: spec.scheme,
        attack: spec.attack,
        fault: spec.fault,
        seed,
    }
}

/// A request run through the traced trial pipeline on a service worker.
struct TracedRequest {
    spec: Spec,
    seed: u64,
}

impl Job for TracedRequest {
    type Out = (TrialResult, TrialCounts, Vec<Span>);

    fn run(&self, ctx: &mut JobCtx<'_>) -> Self::Out {
        let mut tr = Tracer::default();
        let (row, c) = trace::traced_trial(
            &self.spec,
            self.seed,
            ctx.scratch,
            ctx.parallelism,
            ctx.cache,
            &mut tr,
        );
        ctx.cache_hit = c.artifact_hits == c.artifact_lookups;
        (row, c, tr.spans)
    }
}

/// One harvested reply: request index, generator lateness, the `submit`
/// call's duration, latency from the due instant, the service's own
/// queue and execution times, and the output.
pub struct Sample<T> {
    pub j: usize,
    pub late_ns: u64,
    pub submit_ns: u64,
    pub e2e_ns: u64,
    pub queue_ns: u64,
    pub exec_ns: u64,
    pub out: T,
}

struct Pending<T> {
    j: usize,
    due: Instant,
    late_ns: u64,
    submit_ns: u64,
    ticket: Ticket<T>,
}

fn outcome_name<T>(o: &Outcome<T>) -> &'static str {
    match o {
        Outcome::Done(_) => "done",
        Outcome::Cancelled => "cancelled",
        Outcome::Failed { .. } => "failed",
        Outcome::TimedOut => "timed out",
    }
}

/// Polls every pending ticket once; replies are stamped when found.
fn harvest<T>(pending: &mut Vec<Pending<T>>, done: &mut Vec<Sample<T>>, rep: &mut Report) {
    for p in std::mem::take(pending) {
        match p.ticket.try_wait() {
            Ok(resp) => {
                let e2e_ns = p.due.elapsed().as_nanos() as u64;
                let name = outcome_name(&resp.outcome);
                match resp.outcome.done() {
                    Some(out) => done.push(Sample {
                        j: p.j,
                        late_ns: p.late_ns,
                        submit_ns: p.submit_ns,
                        e2e_ns,
                        queue_ns: resp.queue_ns,
                        exec_ns: resp.exec_ns,
                        out,
                    }),
                    None => rep.fail(format!("request {} {name}", p.j)),
                }
            }
            Err(Ok(ticket)) => pending.push(Pending { ticket, ..p }),
            Err(Err(_)) => rep.fail(format!("request {} lost", p.j)),
        }
    }
}

/// Submits `count` requests at `rate` from one thread, each at its due
/// instant, and harvests every reply.
fn open_loop<J: Job>(
    svc: &SimService<J>,
    make: &dyn Fn(usize) -> (J, Priority),
    rate: f64,
    count: usize,
    rep: &mut Report,
) -> Vec<Sample<J::Out>> {
    let start = Instant::now() + Duration::from_millis(2);
    let mut jitter = 0x5eed_u64;
    let mut pending = Vec::new();
    let mut done = Vec::with_capacity(count);
    for j in 0..count {
        let due = start + Duration::from_secs_f64(j as f64 / rate);
        loop {
            harvest(&mut pending, &mut done, rep);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(poll_pause(&mut jitter)));
        }
        let (job, pri) = make(j);
        let t_sub = Instant::now();
        let late_ns = (t_sub - due).as_nanos() as u64;
        rep.attempted += 1;
        match svc.submit(job, pri) {
            Ok(ticket) => pending.push(Pending {
                j,
                due,
                late_ns,
                submit_ns: t_sub.elapsed().as_nanos() as u64,
                ticket,
            }),
            Err(e) => rep.fail(format!("request {j} refused: {e:?}")),
        }
    }
    let give_up = Instant::now() + Duration::from_secs(60);
    while !pending.is_empty() {
        harvest(&mut pending, &mut done, rep);
        if Instant::now() > give_up {
            for p in pending.drain(..) {
                rep.fail(format!("request {} never answered", p.j));
            }
        }
        std::thread::sleep(poll_pause(&mut jitter));
    }
    check_replies(rep, &done);
    done.sort_by_key(|s| s.j);
    done
}

/// Fails the run for every reply faster than the service's own queue and
/// execution times: the client clock must start no later than `submit`.
pub fn check_replies<T>(rep: &mut Report, samples: &[Sample<T>]) {
    for s in samples {
        if s.e2e_ns < s.queue_ns + s.exec_ns {
            rep.fail(format!(
                "request {}: e2e {} ns < queue {} + exec {} ns",
                s.j, s.e2e_ns, s.queue_ns, s.exec_ns
            ));
        }
    }
}

/// Shuts the service down and fails the run if its counters show a
/// refused, cancelled, timed-out or panicked request.
pub fn shutdown_checked<J: Job>(rep: &mut Report, svc: SimService<J>) {
    let stats = svc.shutdown();
    if stats.rejected + stats.cancelled + stats.timed_out + stats.panicked > 0 {
        rep.fail(format!("service counters report failures: {stats:?}"));
    }
}

fn workers() -> usize {
    mpic::sim_threads_env()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut rep = Report::default();
    let rot = rotation();
    let make = |j: usize| {
        let (spec, s, pri) = request(&rot, seed, j);
        (sim_request(spec, s), pri)
    };
    let reference: Vec<TrialResult> = (0..POPULATION)
        .map(|k| {
            let (spec, s, _) = request(&rot, seed, k);
            run_trial(spec.workload, spec.scheme, spec.attack, s)
        })
        .collect();
    for (k, row) in reference.iter().enumerate() {
        rep.check_row(&request(&rot, seed, k).0, row, "reference trial");
    }
    rep.check_population("served_mix", seed, &reference);
    let mut check = |rep: &mut Report, j: usize, row: &TrialResult, what: &str| {
        rep.check_row(&request(&rot, seed, j).0, row, what);
        if *row != reference[j % POPULATION] {
            rep.fail(format!("{what} {j} differs from bench::run_trial"));
        }
    };

    // Set-up: start the service and serve one request of each kind cold.
    let mut setups = Vec::new();
    let mut svc: Option<SimService<SimRequest>> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = svc.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let s = sim_service(ServiceConfig::default());
        let tickets: Vec<_> = (0..rot.len())
            .map(|j| s.submit(make(j).0, Priority::Normal))
            .collect();
        for (j, t) in tickets.into_iter().enumerate() {
            match t.map(|t| t.wait().map(|r| r.outcome.done())) {
                Ok(Ok(Some(row))) => check(&mut rep, j, &row, "set-up request"),
                _ => rep.fail(format!("set-up request {j} not served")),
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
        svc = Some(s);
    }
    let svc = svc.expect("set-up ran");
    rep.set("setup_s", quantile(&setups, 0.5));

    let open_s = if traced {
        seconds / 2.0
    } else {
        seconds * OPEN_SHARE
    };
    let count = (RATE * open_s).ceil() as usize;
    let samples = open_loop(&svc, &make, RATE, count, &mut rep);
    // The open loop is a fixed amount of work; the capacity phase is not.
    rep.set("peak_rss_mb", peak_rss_mb());
    for s in &samples {
        check(&mut rep, s.j, &s.out, "request");
    }
    let e2e_ms: Vec<f64> = samples.iter().map(|s| s.e2e_ns as f64 / 1e6).collect();
    let windows: Vec<&[f64]> = if e2e_ms.len() < WINDOW {
        vec![&e2e_ms]
    } else {
        e2e_ms.chunks_exact(WINDOW).collect()
    };
    let calmest = |q: f64| {
        windows
            .iter()
            .map(|w| quantile(w, q))
            .fold(f64::INFINITY, f64::min)
    };
    rep.set("latency_ms_p50", calmest(0.5));
    rep.set("latency_ms_tail", calmest(0.9));
    rep.note(format!(
        "served_mix open loop: {} requests at {RATE} req/s in {} windows; over all of them \
         p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
        samples.len(),
        windows.len(),
        quantile(&e2e_ms, 0.5),
        quantile(&e2e_ms, 0.9),
        quantile(&e2e_ms, 0.99)
    ));
    serve_metrics(&mut rep, &svc, &samples);
    let late_ms: Vec<f64> = samples.iter().map(|s| s.late_ns as f64 / 1e6).collect();
    rep.set("gen.late_ms_p99", quantile(&late_ms, 0.99));

    if !traced {
        capacity(&mut rep, &svc, &make, seconds - open_s, &mut check);
    }
    shutdown_checked(&mut rep, svc);

    if traced {
        let tsvc: SimService<TracedRequest> = SimService::start(ServiceConfig::default());
        let make_traced = |j: usize| {
            let (spec, seed, pri) = request(&rot, seed, j);
            (TracedRequest { spec, seed }, pri)
        };
        // Warm the traced service's cache and scratch like the untraced one.
        for j in 0..rot.len() {
            if !matches!(
                tsvc.submit(make_traced(j).0, Priority::Normal)
                    .map(Ticket::wait),
                Ok(Ok(_))
            ) {
                rep.fail(format!("traced warm-up request {j} not served"));
            }
        }
        let tsamples = open_loop(&tsvc, &make_traced, RATE, count, &mut rep);
        shutdown_checked(&mut rep, tsvc);
        let mut spans = Vec::new();
        let mut counts = Vec::new();
        for s in &tsamples {
            let (row, c, sp) = &s.out;
            if *row != reference[s.j % POPULATION] {
                rep.fail(format!(
                    "traced request {} differs from the untraced row",
                    s.j
                ));
            }
            let off = spans.len();
            spans.extend(sp.iter().cloned().map(|mut x| {
                x.parent = x.parent.map(|p| p + off);
                x
            }));
            counts.push(*c);
        }
        trace::layer_metrics(&mut rep, &spans, &counts);
        let untraced_exec: Vec<f64> = samples.iter().map(|s| s.exec_ns as f64).collect();
        let traced_exec: Vec<f64> = tsamples.iter().map(|s| s.exec_ns as f64).collect();
        rep.set(
            "trace.overhead_frac",
            mean(&traced_exec) / mean(&untraced_exec) - 1.0,
        );
        match trace::write_spans("served_mix", seed, &spans) {
            Ok(p) => rep.note(format!("spans written to {p}")),
            Err(e) => rep.fail(format!("writing spans: {e}")),
        }
        let probe_spec = Spec::new(rot[3].workload, Scheme::A, AttackSpec::None);
        trace::probe_metrics(&mut rep, &probe_spec, derive_trial_seed(seed, 3), 15);
    }
    rep
}

/// Serve-layer figures read from the replies and the service counters.
pub fn serve_metrics(
    rep: &mut Report,
    svc: &SimService<SimRequest>,
    samples: &[Sample<TrialResult>],
) {
    let col = |f: &dyn Fn(&Sample<TrialResult>) -> u64| -> Vec<f64> {
        samples.iter().map(|s| f(s) as f64).collect()
    };
    let queue = col(&|s| s.queue_ns);
    let exec = col(&|s| s.exec_ns);
    let e2e = col(&|s| s.e2e_ns);
    let handoff = col(&|s| s.e2e_ns - s.queue_ns - s.exec_ns);
    rep.set("serve.submit_ns", mean(&col(&|s| s.submit_ns)));
    rep.set("serve.queue_ns_p50", quantile(&queue, 0.5));
    rep.set("serve.queue_ns_p99", quantile(&queue, 0.99));
    rep.set("serve.exec_ns_p50", quantile(&exec, 0.5));
    rep.set("serve.exec_ns_p99", quantile(&exec, 0.99));
    rep.set("serve.handoff_ns_p99", quantile(&handoff, 0.99));
    rep.set(
        "serve.self_share",
        1.0 - exec.iter().sum::<f64>() / e2e.iter().sum::<f64>().max(1.0),
    );
    let stats = svc.stats();
    rep.set(
        "serve.queue_depth_highwater",
        stats.queue_depth_highwater as f64,
    );
    rep.set(
        "serve.cache_hit_ratio",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
    );
}

/// Closed-loop capacity: keep 32 requests per worker in flight and count
/// completions per second. The generator tops the window up and harvests
/// finished replies once a millisecond instead of blocking on each reply,
/// so the queue never drains and the workers never wait for it: the
/// figure is the service's own rate, not the cost of waking a client per
/// reply.
fn capacity(
    rep: &mut Report,
    svc: &SimService<SimRequest>,
    make: &dyn Fn(usize) -> (SimRequest, Priority),
    seconds: f64,
    check: &mut dyn FnMut(&mut Report, usize, &TrialResult, &str),
) {
    let window = 32 * workers();
    let mut inflight: Vec<(usize, Ticket<TrialResult>)> = Vec::with_capacity(window);
    let t_start = Instant::now();
    let deadline = t_start + Duration::from_secs_f64(seconds);
    let (mut j, mut completed, mut cc) = (0usize, 0usize, 0u64);
    let mut t_last = t_start;
    loop {
        while inflight.len() < window && Instant::now() < deadline {
            rep.attempted += 1;
            match svc.submit(make(j).0, Priority::Normal) {
                Ok(t) => inflight.push((j, t)),
                Err(e) => rep.fail(format!("capacity request {j} refused: {e:?}")),
            }
            j += 1;
        }
        if inflight.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        for (k, t) in std::mem::take(&mut inflight) {
            match t.try_wait() {
                Ok(resp) => match resp.outcome.done() {
                    Some(row) => {
                        t_last = Instant::now();
                        completed += 1;
                        cc += row.cc;
                        check(rep, k, &row, "capacity request");
                    }
                    None => rep.fail(format!("capacity request {k} not served")),
                },
                Err(Ok(t)) => inflight.push((k, t)),
                Err(Err(_)) => rep.fail(format!("capacity request {k} lost")),
            }
        }
    }
    let wall = (t_last - t_start).as_secs_f64().max(1e-9);
    rep.set("trials_per_s", completed as f64 / wall);
    rep.set("sim_mbit_per_s", cc as f64 / wall / 1e6);
    rep.note(format!(
        "served_mix capacity: {completed} requests closed loop ({window} in flight) in {wall:.2} s"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{digest, pinned_digest, Spec};
    use mpic::{ArtifactCache, Parallelism, RunScratch};

    /// The open-loop clock starts at the due instant, so a reply can never
    /// be faster than the service's own queue and execution times.
    #[test]
    fn e2e_covers_queue_and_exec_for_every_request() {
        let rot = rotation();
        let svc = sim_service(ServiceConfig::default());
        let make = |j: usize| {
            let (spec, s, pri) = request(&rot, 5, j);
            (sim_request(spec, s), pri)
        };
        let mut rep = Report::default();
        let samples = open_loop(&svc, &make, RATE, 120, &mut rep);
        svc.shutdown();
        assert_eq!(rep.failed, 0, "{:?}", rep.problems);
        assert_eq!(samples.len(), 120);
        for s in &samples {
            assert!(
                s.e2e_ns >= s.queue_ns + s.exec_ns,
                "request {}: e2e {} < queue {} + exec {}",
                s.j,
                s.e2e_ns,
                s.queue_ns,
                s.exec_ns
            );
        }
    }

    /// The traced pipeline makes exactly the rows `bench` makes.
    #[test]
    fn traced_trials_match_bench_rows() {
        let cache = ArtifactCache::new();
        let mut scratch = RunScratch::new();
        let mut specs: Vec<Spec> = rotation();
        specs.extend(crate::noisy_sweep::points());
        for (k, spec) in specs.iter().enumerate() {
            let seed = derive_trial_seed(9, k);
            let mut tr = Tracer::default();
            let (row, _) = trace::traced_trial(
                spec,
                seed,
                &mut scratch,
                Parallelism::Serial,
                &cache,
                &mut tr,
            );
            let want = bench::run_trial_faulted(
                spec.workload,
                spec.scheme,
                spec.attack.clone(),
                spec.fault,
                seed,
            );
            assert_eq!(row, want, "{spec:?}");
            assert!(tr.spans.iter().any(|s| s.name == "core.run"));
        }
    }

    /// The served population's outcomes are pinned for the recorded seeds.
    #[test]
    fn served_population_matches_pinned_digest() {
        let rot = rotation();
        let rows: Vec<TrialResult> = (0..POPULATION)
            .map(|k| {
                let (spec, s, _) = request(&rot, 1, k);
                run_trial(spec.workload, spec.scheme, spec.attack, s)
            })
            .collect();
        let pinned = pinned_digest("served_mix", 1).expect("seed 1 is pinned");
        assert_eq!(digest(&rows), pinned);
    }
}
