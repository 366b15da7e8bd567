//! The traced run: spans recorded from this package around calls into
//! each crate's public functions, the per-layer figures they give, and
//! replay probes of the hot primitives at an observed geometry.
//!
//! Nothing inside the program is instrumented. [`traced_trial`] is the
//! trial pipeline of `bench::run_trial_serviced` spelled out call by call
//! so each call can be timed; its rows are checked byte for byte against
//! the untraced rows, so a drift between the two pipelines fails the run.

use crate::common::{mean, Report, Spec};
use bench::{AttackSpec, FaultSpec, Scheme, TrialResult};
use mpic::baseline::{run_no_coding, run_repetition};
use mpic::{
    transcript_hash, ArtifactCache, LinkTranscript, Parallelism, RunOptions, RunScratch,
    Simulation, TranscriptHasher,
};
use netsim::attacks::NoNoise;
use netsim::{FrameBatch, Network};
use protocol::{ChunkRecord, Sym};
use smallbias::{hash_words, CrsSource, SeedLabel, SeedSource};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One timed call. Times are ns since the process-wide trace epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same [`Tracer`], if any.
    pub parent: Option<usize>,
    /// The trial (or request) the span belongs to.
    pub trial: u64,
}

/// Process-wide time origin, so spans from different threads line up.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// An in-memory span buffer (one per thread; merged at the end).
#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    fn record(
        &mut self,
        name: &'static str,
        start: u64,
        parent: Option<usize>,
        trial: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: now_ns(),
            parent,
            trial,
        });
        self.spans.len() - 1
    }
}

/// Counts read from one trial's outcome, plus the geometry the replay
/// probes need.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrialCounts {
    pub coding: bool,
    pub iterations: u64,
    pub real_chunks: u64,
    pub links: u64,
    pub tau: u32,
    /// Bits of a real chunk and of the dummy (heartbeat) chunk.
    pub real_chunk_bits: u64,
    pub dummy_chunk_bits: u64,
    pub rounds: u64,
    pub cc: u64,
    pub payload_cc: u64,
    pub corruptions: u64,
    pub mp_resets: u64,
    pub rewind_truncations: u64,
    pub rewind_wave_depth: u64,
    pub stalled_iterations: u64,
    pub hash_collisions: u64,
    pub masked_symbols: u64,
    pub artifact_hits: u64,
    pub artifact_lookups: u64,
    /// Duration of the `core.run` call.
    pub run_ns: u64,
}

/// The attack budget rule of `bench::run_trial`: fraction-carrying
/// attacks get their fraction of the predicted communication with 50%
/// slack; pattern attacks are uncapped.
fn attack_budget(attack: &AttackSpec, predicted_cc: u64) -> u64 {
    match attack {
        AttackSpec::Iid { fraction } => {
            ((fraction.clamp(0.0, 1.0) * 1.5) * predicted_cc as f64).ceil() as u64
        }
        AttackSpec::Scripted { steps } => steps.len() as u64,
        _ => u64::MAX,
    }
}

/// One trial through the same public calls `bench::run_trial_serviced`
/// makes, each wrapped in a span under one `bench.trial` span.
pub fn traced_trial(
    spec: &Spec,
    seed: u64,
    scratch: &mut RunScratch,
    parallelism: Parallelism,
    cache: &ArtifactCache,
    tr: &mut Tracer,
) -> (TrialResult, TrialCounts) {
    let t_trial = now_ns();
    let mut kids: Vec<(&'static str, u64, u64)> = Vec::new();
    let timed = |name: &'static str, t0: u64, kids: &mut Vec<(&'static str, u64, u64)>| {
        kids.push((name, t0, now_ns()));
    };
    let mut c = TrialCounts::default();

    let t0 = now_ns();
    let w = spec.workload.build(seed.wrapping_mul(0x9e37_79b9) | 1);
    timed("protocol.build", t0, &mut kids);
    let g = w.graph().clone();
    c.links = g.link_count() as u64;

    let t0 = now_ns();
    let (hint_statics, hint_hit) = cache.get_or_compile(&*w, 5 * g.edge_count());
    timed("core.artifact.lookup", t0, &mut kids);
    c.artifact_lookups += 1;
    c.artifact_hits += u64::from(hint_hit);

    let row = match spec.scheme {
        Scheme::NoCoding | Scheme::Repetition(_) => {
            let proto = &hint_statics.proto;
            let rounds: u64 = (0..proto.real_chunks())
                .map(|i| proto.layout(i).round_count() as u64)
                .sum();
            let rep = match spec.scheme {
                Scheme::Repetition(r) => r,
                _ => 1,
            };
            let cc_predict = (proto.real_chunks() * proto.chunk_bits()) as u64 * rep as u64;
            let geometry = netsim::PhaseGeometry {
                setup: 0,
                meeting_points: 0,
                flag_passing: 0,
                simulation: rounds.max(1) * rep as u64,
                rewind: 1,
            };
            let budget = attack_budget(&spec.attack, cc_predict);
            let t0 = now_ns();
            let adversary = spec
                .attack
                .build(&g, geometry, cc_predict, rounds * rep as u64, seed);
            timed("netsim.attack_build", t0, &mut kids);
            let t0 = now_ns();
            let out = if rep == 1 {
                run_no_coding(&*w, proto, adversary, budget)
            } else {
                run_repetition(&*w, proto, adversary, budget, rep)
            };
            timed("core.run", t0, &mut kids);
            c.run_ns = now_ns() - t0;
            c.rounds = out.stats.rounds;
            c.cc = out.stats.cc;
            c.payload_cc = out.payload_cc;
            c.corruptions = out.stats.corruptions;
            TrialResult {
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
            }
        }
        _ => {
            let hint = hint_statics.proto.real_chunks();
            let mut cfg = spec.scheme.config(&g, hint, 0xc0de ^ seed);
            cfg.parallelism = parallelism;
            let statics = if cfg.chunk_bits() == 5 * g.edge_count() {
                hint_statics
            } else {
                let t0 = now_ns();
                let (s, hit) = cache.get_or_compile(&*w, cfg.chunk_bits());
                timed("core.artifact.lookup", t0, &mut kids);
                c.artifact_lookups += 1;
                c.artifact_hits += u64::from(hit);
                s
            };
            c.coding = true;
            c.tau = cfg.hash_bits;
            c.real_chunks = statics.proto.real_chunks() as u64;
            c.real_chunk_bits = statics.proto.layout(0).bits() as u64;
            c.dummy_chunk_bits = statics.proto.layout(statics.proto.real_chunks()).bits() as u64;
            let t0 = now_ns();
            let mut sim = Simulation::with_statics(&*w, cfg, seed, statics);
            timed("core.construct", t0, &mut kids);
            let geometry = sim.geometry();
            let predicted_cc = sim.predicted_cc();
            let predicted_rounds =
                geometry.setup + sim.iterations() as u64 * geometry.iteration_rounds();
            if !matches!(spec.fault, FaultSpec::None) {
                let t0 = now_ns();
                let plan = spec.fault.build(&g, predicted_rounds, seed);
                timed("netsim.fault_build", t0, &mut kids);
                sim.set_fault_plan(plan);
            }
            let budget = attack_budget(&spec.attack, predicted_cc);
            let t0 = now_ns();
            let adversary = spec
                .attack
                .build(&g, geometry, predicted_cc, predicted_rounds, seed);
            timed("netsim.attack_build", t0, &mut kids);
            let opts = RunOptions {
                noise_budget: budget,
                record_trace: false,
                expose_view: true,
            };
            let t0 = now_ns();
            let out = sim.run_with_scratch(adversary, opts, scratch);
            timed("core.run", t0, &mut kids);
            c.run_ns = now_ns() - t0;
            let inst = &out.instrumentation;
            c.iterations = out.iterations as u64;
            c.rounds = out.stats.rounds;
            c.cc = out.stats.cc;
            c.payload_cc = out.payload_cc;
            c.corruptions = out.stats.corruptions;
            c.mp_resets = inst.mp_resets;
            c.rewind_truncations = inst.rewind_truncations;
            c.rewind_wave_depth = inst.rewind_wave_depth;
            c.stalled_iterations = inst.stalled_iterations;
            c.hash_collisions = inst.hash_collisions;
            c.masked_symbols = inst.masked_symbols;
            TrialResult {
                success: out.success,
                cc: out.stats.cc,
                payload_cc: out.payload_cc,
                corruptions: out.stats.corruptions,
                noise_fraction: out.stats.noise_fraction(),
                blowup: out.blowup,
                hash_collisions: inst.hash_collisions,
                rounds: out.stats.rounds,
                degraded: out.verdict.code(),
                links_downed: inst.links_downed,
                crash_rounds: inst.crash_rounds,
                resync_rewinds: inst.resync_rewinds,
                mp_resets: inst.mp_resets,
                stalled_iterations: inst.stalled_iterations,
                rewind_wave_depth: inst.rewind_wave_depth,
            }
        }
    };
    let parent = tr.record("bench.trial", t_trial, None, seed);
    for (name, start, end) in kids {
        tr.spans.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
            trial: seed,
        });
    }
    (row, c)
}

/// Per-layer figures from the spans and counts of a traced phase. Every
/// `bench.trial` span must be accounted for by its children plus a
/// non-negative remainder; a span that is not fails the run.
pub fn layer_metrics(rep: &mut Report, spans: &[Span], counts: &[TrialCounts]) {
    let mut total: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = total.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
    }
    let mean_ns = |name: &str| {
        total
            .get(name)
            .map_or(0.0, |&(n, ns)| ns as f64 / n.max(1) as f64)
    };
    rep.set("protocol.build_ns", mean_ns("protocol.build"));
    rep.set("core.artifact.lookup_ns", mean_ns("core.artifact.lookup"));
    rep.set("core.construct_ns", mean_ns("core.construct"));
    rep.set("netsim.attack_build_ns", mean_ns("netsim.attack_build"));
    rep.set("netsim.fault_build_ns", mean_ns("netsim.fault_build"));
    rep.set("bench.trial_ns", mean_ns("bench.trial"));

    // Self time: each child has no children of its own, so its self time
    // is its duration; the trial span's self time is the remainder.
    let mut child_ns = vec![0u64; spans.len()];
    let mut last_end = vec![0u64; spans.len()];
    let mut layer_self: BTreeMap<&str, u64> = BTreeMap::new();
    let mut broken = 0u64;
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if s.start < parent.start.max(last_end[p]) || s.end > parent.end {
                broken += 1;
            }
            last_end[p] = s.end;
            child_ns[p] += s.end - s.start;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *layer_self.entry(layer).or_default() += s.end - s.start;
        }
    }
    let mut trial_ns = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.name == "bench.trial" {
            let d = s.end - s.start;
            trial_ns += d;
            if child_ns[i] > d {
                broken += 1;
            }
            *layer_self.entry("bench").or_default() += d.saturating_sub(child_ns[i]);
        }
    }
    if broken > 0 {
        rep.fail(format!(
            "{broken} trial spans not covered by their children plus remainder"
        ));
    }
    let share =
        |layer: &str| layer_self.get(layer).copied().unwrap_or(0) as f64 / trial_ns.max(1) as f64;
    rep.set("bench.self_share", share("bench"));
    rep.set("protocol.self_share", share("protocol"));
    rep.set("core.self_share", share("core"));
    rep.set("netsim.self_share", share("netsim"));

    let coding: Vec<&TrialCounts> = counts.iter().filter(|c| c.coding).collect();
    let runs: Vec<f64> = counts.iter().map(|c| c.run_ns as f64).collect();
    rep.set("core.run_ns", mean(&runs));
    let rounds: u64 = counts.iter().map(|c| c.rounds).sum();
    rep.set(
        "core.run.ns_per_round",
        runs.iter().sum::<f64>() / rounds.max(1) as f64,
    );
    let coding_run_ns: u64 = coding.iter().map(|c| c.run_ns).sum();
    let link_iters: u64 = coding.iter().map(|c| c.links * c.iterations).sum();
    rep.set(
        "core.run.ns_per_link_iteration",
        coding_run_ns as f64 / link_iters.max(1) as f64,
    );

    let per_trial = |f: &dyn Fn(&TrialCounts) -> u64| {
        coding.iter().map(|c| f(c)).sum::<u64>() as f64 / coding.len().max(1) as f64
    };
    let all_trials = |f: &dyn Fn(&TrialCounts) -> u64| {
        counts.iter().map(f).sum::<u64>() as f64 / counts.len().max(1) as f64
    };
    let iters: u64 = coding.iter().map(|c| c.iterations).sum();
    let real: u64 = coding.iter().map(|c| c.real_chunks).sum();
    let cc: u64 = counts.iter().map(|c| c.cc).sum();
    let payload: u64 = counts.iter().map(|c| c.payload_cc).sum();
    let hits: u64 = counts.iter().map(|c| c.artifact_hits).sum();
    let lookups: u64 = counts.iter().map(|c| c.artifact_lookups).sum();
    rep.set(
        "core.artifact.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    rep.set("core.iterations", per_trial(&|c| c.iterations));
    rep.set("core.progress_ratio", real as f64 / iters.max(1) as f64);
    rep.set("core.useful_bits_ratio", payload as f64 / cc.max(1) as f64);
    rep.set("core.mp.resets", per_trial(&|c| c.mp_resets));
    rep.set(
        "core.rewind.truncations",
        per_trial(&|c| c.rewind_truncations),
    );
    rep.set(
        "core.rewind.wave_depth",
        per_trial(&|c| c.rewind_wave_depth),
    );
    rep.set(
        "core.flags.stalled_iterations",
        per_trial(&|c| c.stalled_iterations),
    );
    rep.set("core.hash_collisions", per_trial(&|c| c.hash_collisions));
    rep.set("netsim.rounds", all_trials(&|c| c.rounds));
    rep.set("netsim.cc_bits", all_trials(&|c| c.cc));
    rep.set("netsim.corruptions", all_trials(&|c| c.corruptions));
    rep.set(
        "netsim.fault.masked_symbols",
        per_trial(&|c| c.masked_symbols),
    );
}

/// Writes the spans as JSON lines under `out/` next to this package's
/// manifest, and returns the path.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"trial\":{}}}",
            s.name, s.start, s.end, parent, s.trial
        )?;
    }
    f.flush()?;
    Ok(path.display().to_string())
}

/// Per-call costs of the hot primitives, replayed at a trial's geometry.
struct ProbeCosts {
    push_ns: f64,
    sketch_at_ns: f64,
    outer_hash_ns: f64,
    hk_hash_ns: f64,
    step_rounds_ns: f64,
}

/// Replays, serially and outside any run, what one trial of geometry `c`
/// asks of the sketch kernel, the meeting-points hashes and the wire:
/// per iteration and directed link, three `sketch_at` reads and one
/// `push` of a chunk record, three outer `transcript_hash`es plus the
/// `h(k)` hash (each on a freshly opened seed stream, as the runner
/// does), and one 4τ-round `step_rounds_into` batch per iteration.
fn probe(c: &TrialCounts, graph: &netgraph::Graph, seed: u64) -> ProbeCosts {
    let lanes = c.links.clamp(1, 4096) as usize;
    let iters = c.iterations.max(1) as usize;
    let tau = c.tau.max(1);
    let syms_of = |bits: u64| {
        ((2 * bits) as usize)
            .div_ceil(c.links.max(1) as usize)
            .max(1)
    };
    let (real_syms, dummy_syms) = (syms_of(c.real_chunk_bits), syms_of(c.dummy_chunk_bits));
    let src: Arc<dyn SeedSource> = Arc::new(CrsSource::new(seed));
    let mut ts: Vec<LinkTranscript> = (0..lanes)
        .map(|e| {
            let mut t = LinkTranscript::new();
            let label = SeedLabel {
                iteration: 0,
                channel: e as u64,
                slot: 2,
            };
            t.attach_hasher(TranscriptHasher::incremental(Arc::clone(&src), label));
            t
        })
        .collect();
    let pattern = [
        Sym::One,
        Sym::Zero,
        Sym::One,
        Sym::One,
        Sym::Zero,
        Sym::Star,
    ];
    let (mut push_ns, mut sketch_ns, mut outer_ns, mut hk_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut sink = 0u64;
    for it in 0..iters {
        let syms = if (it as u64) < c.real_chunks {
            real_syms
        } else {
            dummy_syms
        };
        let recs: Vec<ChunkRecord> = (0..lanes)
            .map(|l| ChunkRecord {
                chunk: it as u64,
                syms: (0..syms)
                    .map(|i| pattern[(i + l + it) % pattern.len()])
                    .collect(),
            })
            .collect();
        let t0 = Instant::now();
        let mut sketches = Vec::with_capacity(lanes);
        for t in ts.iter_mut() {
            let ell = t.chunks();
            let a = t.sketch_at(ell);
            let b = t.sketch_at(ell);
            let d = t.sketch_at(ell.saturating_sub(1));
            sketches.push([a, b, d]);
        }
        let t1 = Instant::now();
        for (e, sk) in sketches.iter().enumerate() {
            let label = |slot| SeedLabel {
                iteration: it as u64,
                channel: e as u64,
                slot,
            };
            for &(s, len) in sk {
                sink ^= transcript_hash(s, len, tau, &mut *src.stream(label(1)));
            }
        }
        let t2 = Instant::now();
        for e in 0..lanes {
            let label = SeedLabel {
                iteration: it as u64,
                channel: e as u64,
                slot: 0,
            };
            sink ^= hash_words(&[1], 64, tau, &mut *src.stream(label));
        }
        let t3 = Instant::now();
        for (t, rec) in ts.iter_mut().zip(recs) {
            t.push(rec);
        }
        let t4 = Instant::now();
        sketch_ns += (t1 - t0).as_nanos() as u64;
        outer_ns += (t2 - t1).as_nanos() as u64;
        hk_ns += (t3 - t2).as_nanos() as u64;
        push_ns += (t4 - t3).as_nanos() as u64;
    }
    std::hint::black_box(sink);
    let calls = (lanes * iters) as f64;

    let links = graph.link_count();
    let rounds = 4 * tau as usize;
    let mut tx = FrameBatch::new(links, rounds);
    let mut rx = FrameBatch::new(links, rounds);
    let mut x = seed | 1;
    for lid in 0..links {
        let words: Vec<u64> = (0..rounds.div_ceil(64))
            .map(|_| smallbias::splitmix64(&mut x))
            .collect();
        tx.set_bits(lid, &words, rounds);
    }
    let mut net = Network::new(graph.clone(), Box::new(NoNoise), u64::MAX);
    let t0 = Instant::now();
    for _ in 0..iters {
        net.step_rounds_into(&tx, None, &mut rx);
    }
    let step_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    std::hint::black_box(&rx);

    ProbeCosts {
        push_ns: push_ns as f64 / calls,
        sketch_at_ns: sketch_ns as f64 / (3.0 * calls),
        outer_hash_ns: outer_ns as f64 / (3.0 * calls),
        hk_hash_ns: hk_ns as f64 / calls,
        step_rounds_ns: step_ns,
    }
}

/// Serial runs of `spec` alternated with probe replays at its geometry,
/// so both see the same host conditions: the median `core.run` time, the
/// geometry, and field-wise median probe costs. One replay of a small
/// geometry is only a few hundred calls, too few to time on its own.
fn calibrate(spec: &Spec, seed: u64, reps: usize) -> (f64, TrialCounts, ProbeCosts) {
    let cache = ArtifactCache::new();
    let mut scratch = RunScratch::new();
    let graph = spec.workload.build(seed).graph().clone();
    let mut serial = || {
        let (_, c) = traced_trial(
            spec,
            seed,
            &mut scratch,
            Parallelism::Serial,
            &cache,
            &mut Tracer::default(),
        );
        c
    };
    // A first, cold run sizes the scratch and gives the geometry.
    let counts = serial();
    let mut runs = Vec::new();
    let mut costs = Vec::new();
    for _ in 0..reps {
        runs.push(serial().run_ns as f64);
        costs.push(probe(&counts, &graph, seed));
    }
    let med = |f: fn(&ProbeCosts) -> f64| {
        crate::common::quantile(&costs.iter().map(f).collect::<Vec<_>>(), 0.5)
    };
    let costs = ProbeCosts {
        push_ns: med(|p| p.push_ns),
        sketch_at_ns: med(|p| p.sketch_at_ns),
        outer_hash_ns: med(|p| p.outer_hash_ns),
        hk_hash_ns: med(|p| p.hk_hash_ns),
        step_rounds_ns: med(|p| p.step_rounds_ns),
    };
    (crate::common::quantile(&runs, 0.5), counts, costs)
}

/// Shares of a serial run's time the probes predict: per-call cost times
/// the number of calls the geometry implies, over the measured run time.
struct Shares {
    push: f64,
    sketch_at: f64,
    outer_hash: f64,
    hk_hash: f64,
    step_rounds: f64,
}

impl Shares {
    fn of(p: &ProbeCosts, c: &TrialCounts, run_ns: f64) -> Shares {
        let link_iters = (c.links * c.iterations) as f64;
        let run = run_ns.max(1.0);
        Shares {
            push: p.push_ns * link_iters / run,
            sketch_at: 3.0 * p.sketch_at_ns * link_iters / run,
            outer_hash: 3.0 * p.outer_hash_ns * link_iters / run,
            hk_hash: p.hk_hash_ns * link_iters / run,
            step_rounds: p.step_rounds_ns * c.iterations as f64 / run,
        }
    }

    /// The sketch kernel: transcript appends plus prefix sketch reads.
    fn sketch(&self) -> f64 {
        self.push + self.sketch_at
    }

    /// Meeting-points hash preparation (`MpState::prepare`): sketch reads
    /// plus the outer and `h(k)` hashes — the "hash prep" column of the
    /// ROADMAP baseline table.
    fn prep(&self) -> f64 {
        self.sketch_at + self.outer_hash + self.hk_hash
    }
}

/// Runs the probes at `spec`'s geometry and at the Ring(4) geometry and
/// records costs and predicted shares.
pub fn probe_metrics(rep: &mut Report, spec: &Spec, seed: u64, reps: usize) {
    let (run_ns, counts, costs) = calibrate(spec, seed, reps);
    let s = Shares::of(&costs, &counts, run_ns);
    rep.set("core.run.serial_ns", run_ns);
    rep.set("core.sketch.push_ns_per_chunk", costs.push_ns);
    rep.set("core.sketch.sketch_at_ns", costs.sketch_at_ns);
    rep.set("core.mp.transcript_hash_ns", costs.outer_hash_ns);
    rep.set("core.mp.hk_hash_ns", costs.hk_hash_ns);
    rep.set("netsim.wire.step_rounds_ns", costs.step_rounds_ns);
    rep.set("core.sketch.push.predicted_share", s.push);
    rep.set("core.sketch.sketch_at.predicted_share", s.sketch_at);
    rep.set(
        "core.mp.transcript_hash.predicted_share",
        s.outer_hash + s.hk_hash,
    );
    rep.set("netsim.wire.step_rounds.predicted_share", s.step_rounds);
    rep.set("core.sketch.predicted_share", s.sketch());
    rep.set("core.prep.predicted_share", s.prep());
    rep.note(format!(
        "probe geometry: {} links x {} iterations, tau {}; serial run {:.3} ms; \
         predicted shares: sketch kernel {:.3} (push {:.3}, sketch_at {:.3}), \
         hash prep {:.3}, outer+h(k) hashes {:.3}, mp wire batch {:.3}",
        counts.links,
        counts.iterations,
        counts.tau,
        run_ns / 1e6,
        s.sketch(),
        s.push,
        s.sketch_at,
        s.prep(),
        s.outer_hash + s.hk_hash,
        s.step_rounds
    ));

    let ring4 = crate::served_mix::ring4_probe_spec();
    let (run4, counts4, costs4) = calibrate(&ring4, seed, 31);
    let s4 = Shares::of(&costs4, &counts4, run4);
    rep.set("core.sketch.ring4_predicted_share", s4.sketch());
    rep.note(format!(
        "ring(4) probe: serial run {:.1} us, predicted sketch kernel share {:.3}, hash prep {:.3}",
        run4 / 1e3,
        s4.sketch(),
        s4.prep()
    ));
}
