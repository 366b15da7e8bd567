//! The reproduction driver: one command that regenerates every table and
//! figure of the repo as a **versioned artifact** (the ruler artifact's
//! `kick-tires`/`lite`/`full` tiering, with the ingest→process→render
//! pipeline documented in EXPERIMENTS.md), plus the open-loop load
//! driver for the serving layer.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- run --quick        # CI-sized, < 60 s
//! cargo run --release -p bench --bin repro -- run --lite        # minutes
//! cargo run --release -p bench --bin repro -- run --full        # hours
//! cargo run --release -p bench --bin repro -- diff              # fresh --quick vs expected/
//! cargo run --release -p bench --bin repro -- accept            # bless fresh run into expected/
//! cargo run --release -p bench --bin repro -- load --quick      # self-gating serve smoke
//! ```
//!
//! `run` executes every sweep in [`SWEEPS`], one per table or figure,
//! and writes `out/<tier>-<git-sha>/` containing `manifest.json` (tier,
//! seed, `SIM_THREADS`, core count, shim versions), one `<sweep>.jsonl`
//! per sweep, and a rendered `report.md`.
//!
//! `diff` compares the newest `out/quick-*` run against the committed
//! expectations under `expected/` and exits nonzero on drift: **outcome**
//! values (success rates, corruption counts, blow-ups — deterministic in
//! the seeds) must match exactly, **timing** values only within
//! `--tolerance` (default 1000×, i.e. effectively a sanity check across
//! hardware classes). Every sweep has a fixture, so every figure is
//! outcome-exact under `diff`.
//!
//! `load` drives the simulation service open loop (arrivals at
//! `t_i = i/rate`, so queueing shows up as latency instead of throttling
//! the offered load) and appends its rows to `BENCH_serve.json`.
//! `--quick` runs a small smoke load and **exits nonzero** unless
//! throughput is nonzero and no request failed; `--compare-raw` also runs
//! one population closed loop through the service and through
//! `run_many`, fails unless the rows are byte-identical, and reports the
//! wall-clock ratio.

use bench::report::{diff_dirs, Manifest, RunWriter, Table};
use bench::{
    derive_trial_seed, run_many, run_trial, sim_service, AttackSpec, FaultSpec, Scheme, SimRequest,
    TopoSpec, TrialResult, WorkloadSpec,
};
use mpic::{Parallelism, RunOptions, RunScratch, SchemeConfig, SeedExpansion, Simulation};
use netsim::PhaseKind;
use serde_json::{json, Value};
use serve::{
    Backpressure, LatencyHistogram, Priority, ServiceConfig, SimService, SubmitError, Ticket,
};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

/// Knobs of one tier. Outcome rows depend only on the seeds, so the same
/// tier reproduces the same outcomes on any machine; the tiers differ in
/// how much statistical and scaling depth they buy with wall clock.
#[derive(Debug)]
struct Tier {
    name: &'static str,
    noise_trials: usize,
    noise_multipliers: &'static [f64],
    scaling_topos: &'static [TopoSpec],
    scaling_threads: &'static [usize],
    serve_requests: usize,
    serve_rate: f64,
    /// Longer size lists, the strong-τ leaderboard row and the full
    /// adversary search.
    deep: bool,
    churn_trials: usize,
}

/// CI-sized: everything in well under a minute on one core.
const QUICK: Tier = Tier {
    name: "quick",
    noise_trials: 4,
    noise_multipliers: &[0.0, 0.02, 0.1, 0.5],
    scaling_topos: &[
        TopoSpec::Ring(64),
        TopoSpec::Ring(256),
        TopoSpec::Grid(16, 16),
    ],
    scaling_threads: &[2],
    serve_requests: 80,
    serve_rate: 400.0,
    deep: false,
    churn_trials: 6,
};

/// Minutes-sized: real sweep resolution, mid-size topologies.
const LITE: Tier = Tier {
    name: "lite",
    noise_trials: 24,
    noise_multipliers: &[0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5],
    scaling_topos: &[
        TopoSpec::Ring(256),
        TopoSpec::Ring(1024),
        TopoSpec::Grid(32, 32),
    ],
    scaling_threads: &[2, 4],
    serve_requests: 2000,
    serve_rate: 500.0,
    deep: true,
    churn_trials: 24,
};

/// Hours-sized: publication-strength trial counts and the largest
/// topologies the ROADMAP names.
const FULL: Tier = Tier {
    name: "full",
    noise_trials: 96,
    noise_multipliers: &[0.0, 0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2, 0.35, 0.5],
    scaling_topos: &[
        TopoSpec::Ring(1024),
        TopoSpec::Ring(4096),
        TopoSpec::Grid(64, 64),
    ],
    scaling_threads: &[2, 4, 8],
    serve_requests: 20_000,
    serve_rate: 800.0,
    deep: true,
    churn_trials: 96,
};

impl Tier {
    /// Network sizes of the size-sweeping figures.
    fn sizes(&self) -> &'static [usize] {
        if self.deep {
            &[4, 6, 8, 10, 12, 16]
        } else {
            &[4, 6, 8]
        }
    }
}

const USAGE: &str = "usage: repro [run|diff|accept|load] [options]
  run     [--quick|--lite|--full] [--seed S] [--out DIR]
  diff    [--fresh DIR] [--expected DIR] [--out DIR] [--tolerance X]   (X > 1)
  accept  [--fresh DIR] [--expected DIR] [--out DIR]
  load    [--quick] [--rate R] [--requests N] [--workers W] [--mix small|schemes|mixed]
          [--backpressure block|reject] [--seed S] [--out PATH] [--compare-raw]";

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Run,
    Diff,
    Accept,
    Load,
}

/// A `load` request population (see [`mix_requests`]).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mix {
    Small,
    Schemes,
    Mixed,
}

impl Mix {
    fn parse(s: &str) -> Result<Mix, String> {
        match s {
            "small" => Ok(Mix::Small),
            "schemes" => Ok(Mix::Schemes),
            "mixed" => Ok(Mix::Mixed),
            other => Err(format!("unknown mix {other:?}; use small|schemes|mixed")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mix::Small => "small",
            Mix::Schemes => "schemes",
            Mix::Mixed => "mixed",
        }
    }
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    tier: &'static Tier,
    /// `--quick` was given: in `load`, the smoke setting and self-gate.
    quick: bool,
    /// Defaults per mode: 2024 for the sweeps, 42 for `load`.
    seed: Option<u64>,
    /// Defaults per mode: the `out` run root, `BENCH_serve.json` for `load`.
    out: Option<String>,
    fresh: Option<String>,
    expected: String,
    tolerance: f64,
    rate: f64,
    requests: usize,
    workers: usize,
    mix: Mix,
    reject: bool,
    compare_raw: bool,
}

impl Args {
    fn seed(&self) -> u64 {
        self.seed
            .unwrap_or(if self.mode == Mode::Load { 42 } else { 2024 })
    }

    fn out(&self) -> &str {
        self.out.as_deref().unwrap_or(if self.mode == Mode::Load {
            "BENCH_serve.json"
        } else {
            "out"
        })
    }
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} wants a number, got {v:?}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        mode: Mode::Run,
        tier: &QUICK,
        quick: false,
        seed: None,
        out: None,
        fresh: None,
        expected: "expected".into(),
        tolerance: 1000.0,
        rate: 200.0,
        requests: 400,
        workers: 0,
        mix: Mix::Mixed,
        reject: false,
        compare_raw: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("missing value after {flag}"))
        };
        match flag.as_str() {
            "run" => a.mode = Mode::Run,
            "diff" => a.mode = Mode::Diff,
            "accept" => a.mode = Mode::Accept,
            "load" => a.mode = Mode::Load,
            "--quick" => (a.tier, a.quick) = (&QUICK, true),
            "--lite" => a.tier = &LITE,
            "--full" => a.tier = &FULL,
            "--seed" => a.seed = Some(number(flag, value()?)?),
            "--out" => a.out = Some(value()?.into()),
            "--fresh" => a.fresh = Some(value()?.into()),
            "--expected" => a.expected = value()?.into(),
            "--tolerance" => {
                a.tolerance = number(flag, value()?)?;
                // NaN would pass every tolerance comparison.
                if a.tolerance.is_nan() || a.tolerance <= 1.0 {
                    return Err(format!("--tolerance must exceed 1.0, got {}", a.tolerance));
                }
            }
            "--rate" => {
                a.rate = number(flag, value()?)?;
                if !a.rate.is_finite() || a.rate <= 0.0 {
                    return Err(format!("--rate must be a positive rate, got {}", a.rate));
                }
            }
            "--requests" => a.requests = number(flag, value()?)?,
            "--workers" => a.workers = number(flag, value()?)?,
            "--mix" => a.mix = Mix::parse(value()?)?,
            "--backpressure" => {
                a.reject = match value()? {
                    "reject" => true,
                    "block" => false,
                    other => {
                        return Err(format!("unknown backpressure {other:?}; use block|reject"))
                    }
                }
            }
            "--compare-raw" => a.compare_raw = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.mode == Mode::Load && a.quick {
        a.requests = a.requests.min(QUICK.serve_requests);
        a.rate = a.rate.min(QUICK.serve_rate);
    }
    Ok(a)
}

fn git_short_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "nogit".into())
}

/// Versions of the offline shims linked into this driver, baked in at
/// compile time from their manifests.
fn shim_versions() -> Vec<String> {
    macro_rules! shim {
        ($name:literal) => {
            (
                $name,
                include_str!(concat!("../../../../shims/", $name, "/Cargo.toml")),
            )
        };
    }
    let shims = [
        shim!("serde"),
        shim!("serde_json"),
        shim!("crossbeam"),
        shim!("proptest"),
        shim!("criterion"),
    ];
    shims
        .iter()
        .map(|(name, toml)| {
            let version = toml
                .lines()
                .find_map(|l| l.strip_prefix("version"))
                .and_then(|l| l.split('"').nth(1))
                .unwrap_or("?");
            format!("{name} {version}")
        })
        .collect()
}

/// Noise-rate vs. decode success for the three schemes, each in its
/// theorem's own noise units (Thm 1.1: ε/m; Thm 1.2: ε/(m log m);
/// App. B: ε/(m log log m)).
fn noise_sweep(tier: &Tier, seed: u64) -> (Table, Vec<Value>) {
    let topo = TopoSpec::Ring(6);
    let m = topo.build(1).edge_count() as f64;
    let w = WorkloadSpec::Gossip { topo, rounds: 8 };
    let schemes: [(Scheme, f64, &str); 3] = [
        (Scheme::A, m, "1/m"),
        (Scheme::B, m * m.log2(), "1/(m log m)"),
        (Scheme::C, m * m.log2().log2().max(1.0), "1/(m log log m)"),
    ];
    let mut table = Table::new(
        "Noise-rate vs. decode success — ring(6) gossip, per-theorem units",
        &[
            "scheme",
            "units",
            "multiplier",
            "fraction",
            "ok",
            "blowup",
            "achieved_f",
        ],
    );
    let mut rows = Vec::new();
    for (si, (scheme, denom, units)) in schemes.iter().enumerate() {
        for (mi, &c) in tier.noise_multipliers.iter().enumerate() {
            let fraction = c / denom;
            let attack = if c == 0.0 {
                AttackSpec::None
            } else {
                AttackSpec::Iid { fraction }
            };
            let base = seed
                .wrapping_add(1_000 * si as u64)
                .wrapping_add(10 * mi as u64);
            let (s, _) = run_many(w, *scheme, attack, tier.noise_trials, base);
            table.push_row(vec![
                scheme.label(),
                units.to_string(),
                format!("{c:.3}"),
                format!("{fraction:.6}"),
                format!("{:.2}", s.success_rate),
                format!("{:.1}", s.mean_blowup),
                format!("{:.6}", s.mean_noise_fraction),
            ]);
            rows.push(json!({
                "scheme": scheme.label(), "units": units, "multiplier": c,
                "fraction": fraction, "trials": tier.noise_trials,
                "success": s.success_rate, "blowup": s.mean_blowup,
                "achieved_fraction": s.mean_noise_fraction,
                "collisions": s.mean_collisions,
            }));
        }
    }
    (table, rows)
}

/// Table 1 analog: blow-up and resilience per scheme × topology —
/// noiseless, under iid noise at 0.01/m, and under a 12-round burst on
/// one link inside the first simulated chunk, which the schemes detect
/// and replay while the uncoded baselines silently absorb it.
fn rate_sweep(tier: &Tier, seed: u64) -> (Table, Vec<Value>) {
    let topologies = [
        TopoSpec::Line(6),
        TopoSpec::Star(6),
        TopoSpec::Clique(5),
        TopoSpec::Random(7, 11),
    ];
    let schemes = [
        Scheme::A,
        Scheme::B,
        Scheme::C,
        Scheme::NoCoding,
        Scheme::Repetition(5),
    ];
    let burst = AttackSpec::Burst {
        link_index: 0,
        at_iteration: 0,
        len: 12,
    };
    let trials = tier.noise_trials;
    let mut table = Table::new(
        "Table 1 — scheme comparison: blow-up and resilience",
        &[
            "scheme",
            "topology",
            "blowup",
            "ok@0",
            "ok@.01/m",
            "ok@burst",
            "achieved_f",
        ],
    );
    let mut rows = Vec::new();
    for scheme in schemes {
        for topo in topologies {
            let w = WorkloadSpec::Gossip { topo, rounds: 8 };
            let m = topo.build(1).edge_count() as f64;
            let (clean, _) = run_many(w, scheme, AttackSpec::None, trials, seed.wrapping_add(100));
            let iid = AttackSpec::Iid { fraction: 0.01 / m };
            let (noisy, _) = run_many(w, scheme, iid, trials, seed.wrapping_add(200));
            let (bursty, _) = run_many(w, scheme, burst.clone(), trials, seed.wrapping_add(250));
            table.push_row(vec![
                scheme.label(),
                topo.label(),
                format!("{:.1}", clean.mean_blowup),
                format!("{:.2}", clean.success_rate),
                format!("{:.2}", noisy.success_rate),
                format!("{:.2}", bursty.success_rate),
                format!("{:.5}", noisy.mean_noise_fraction),
            ]);
            rows.push(json!({
                "scheme": scheme.label(), "topo": topo.label(), "trials": trials,
                "blowup": clean.mean_blowup, "clean_ok": clean.success_rate,
                "noisy_ok": noisy.success_rate, "burst_ok": bursty.success_rate,
                "achieved_fraction": noisy.mean_noise_fraction,
            }));
        }
    }
    (table, rows)
}

/// Constant rate: Algorithm A's communication blow-up vs. network size,
/// noiseless and under iid noise at 0.01/m.
fn blowup_vs_n_sweep(tier: &Tier, seed: u64) -> (Table, Vec<Value>) {
    let trials = tier.noise_trials;
    let (clean_seed, noisy_seed) = (seed.wrapping_add(300), seed.wrapping_add(400));
    let mut table = Table::new(
        "Constant rate — communication blow-up vs network size",
        &["topology", "n", "m", "blowup", "blowup@.01/m", "ok@.01/m"],
    );
    let mut rows = Vec::new();
    for &n in tier.sizes() {
        for topo in [
            TopoSpec::Line(n),
            TopoSpec::Ring(n),
            TopoSpec::Clique(n.min(8)),
        ] {
            let g = topo.build(1);
            let m = g.edge_count() as f64;
            let w = WorkloadSpec::Gossip { topo, rounds: 8 };
            let (clean, _) = run_many(w, Scheme::A, AttackSpec::None, trials, clean_seed);
            let iid = AttackSpec::Iid { fraction: 0.01 / m };
            let (noisy, _) = run_many(w, Scheme::A, iid, trials, noisy_seed);
            table.push_row(vec![
                topo.label(),
                g.node_count().to_string(),
                g.edge_count().to_string(),
                format!("{:.1}", clean.mean_blowup),
                format!("{:.1}", noisy.mean_blowup),
                format!("{:.2}", noisy.success_rate),
            ]);
            rows.push(json!({
                "topo": topo.label(), "n": g.node_count(), "m": g.edge_count(),
                "trials": trials, "blowup_clean": clean.mean_blowup,
                "blowup_noisy": noisy.mean_blowup, "noisy_success": noisy.success_rate,
            }));
        }
    }
    (table, rows)
}

/// §1.2 line example: one early error on the line, with and without
/// flag passing and the rewind phase. `done_at` is the first iteration
/// with `G* ≥ |Π|` (null if never); `stalled_cc` is the communication
/// spent, up to then, in iterations where `G*` made no progress — the
/// "wasted communication" of §1.2. Without flag passing stalled
/// iterations still burn full chunks; without the rewind phase the
/// ⊥-induced length gaps never close and the run deadlocks.
fn line_ablation_sweep(tier: &Tier, seed: u64) -> (Table, Vec<Value>) {
    let mut table = Table::new(
        "§1.2 ablation — one early error on the line: repair speed and stalled bits",
        &["n", "variant", "ok", "done@", "stalled_cc", "clean@"],
    );
    let mut rows = Vec::new();
    let at = |d: Option<u64>| d.map_or("never".into(), |d| d.to_string());
    for &n in tier.sizes() {
        for (variant, no_fp, no_rw) in [
            ("full", false, false),
            ("no_flag", true, false),
            ("no_rewind", false, true),
            ("neither", true, true),
        ] {
            let w = protocol::workloads::LinePipeline::new(n, 3, 99);
            let g = protocol::Workload::graph(&w);
            let mut cfg = SchemeConfig::algorithm_a(g, seed.wrapping_add(5));
            cfg.disable_flag_passing = no_fp;
            cfg.disable_rewind = no_rw;
            let sim = Simulation::new(&w, cfg, 1);
            let real = sim.proto().real_chunks();
            let opts = RunOptions {
                record_trace: true,
                ..Default::default()
            };
            let clean = sim.run(Box::new(netsim::attacks::NoNoise), opts);
            let round = sim.geometry().phase_start(0, PhaseKind::Simulation) + 2;
            let link = netgraph::DirectedLink { from: 0, to: 1 };
            let atk = netsim::attacks::SingleError::new(g, link, round);
            let noisy = sim.run(Box::new(atk), opts);
            let (done, stalled) = trace_metrics(&noisy.instrumentation.samples, real);
            let (clean_done, _) = trace_metrics(&clean.instrumentation.samples, real);
            table.push_row(vec![
                n.to_string(),
                variant.to_string(),
                noisy.success.to_string(),
                at(done),
                stalled.to_string(),
                at(clean_done),
            ]);
            rows.push(json!({
                "n": n, "variant": variant, "success": noisy.success,
                "done_at": done, "stalled_cc": stalled, "clean_done_at": clean_done,
                "noisy_cc": noisy.stats.cc, "clean_cc": clean.stats.cc,
            }));
        }
    }
    (table, rows)
}

/// (first iteration with G* ≥ real, bits spent in non-progressing
/// iterations up to that point — or up to the end if never done).
fn trace_metrics(samples: &[mpic::IterationSample], real: usize) -> (Option<u64>, u64) {
    let mut done = None;
    let mut stalled = 0u64;
    let mut prev_g = 0usize;
    let mut prev_cc = 0u64;
    for s in samples {
        if done.is_none() {
            if s.g_star <= prev_g {
                stalled += s.cc - prev_cc;
            }
            if s.g_star >= real {
                done = Some(s.iteration);
            }
        }
        prev_g = s.g_star;
        prev_cc = s.cc;
    }
    (done, stalled)
}

/// §6.1: the seed-aware non-oblivious attack vs. hash length τ on
/// cliques (τ = 4, 8 and Θ(log m)), plus Appendix B's answer to it:
/// against Algorithm C's hidden CRS the same oracle is starved.
fn hash_len_vs_hunter_sweep(tier: &Tier, seed: u64) -> (Table, Vec<Value>) {
    let sizes: &[usize] = if tier.deep { &[5, 6, 7, 8, 9] } else { &[5, 7] };
    let hunter = AttackSpec::SeedAware { per_iteration: 1 };
    let trials = tier.noise_trials;
    let mut cases: Vec<(TopoSpec, usize, Scheme, u64)> = Vec::new();
    for &n in sizes {
        let topo = TopoSpec::Clique(n);
        let m = topo.build(1).edge_count() as f64;
        let tau_b = (3.0 * m.log2()).ceil() as u32;
        for tau in [4, 8, tau_b] {
            cases.push((topo, 6, Scheme::AWithHash(tau), seed.wrapping_add(500)));
        }
    }
    cases.push((TopoSpec::Ring(6), 8, Scheme::C, seed.wrapping_add(900)));
    let mut table = Table::new(
        "§6.1 — seed-aware non-oblivious attack vs hash length τ (and vs hidden CRS)",
        &["topology", "m", "scheme", "ok", "collisions", "corruptions"],
    );
    let mut rows = Vec::new();
    for (topo, rounds, scheme, base) in cases {
        let m = topo.build(1).edge_count();
        let w = WorkloadSpec::Gossip { topo, rounds };
        let (s, trial_rows) = run_many(w, scheme, hunter.clone(), trials, base);
        let corruptions = trial_rows.iter().map(|r| r.corruptions as f64).sum::<f64>()
            / trial_rows.len().max(1) as f64;
        table.push_row(vec![
            topo.label(),
            m.to_string(),
            scheme.label(),
            format!("{:.2}", s.success_rate),
            format!("{:.1}", s.mean_collisions),
            format!("{corruptions:.1}"),
        ]);
        rows.push(json!({
            "topo": topo.label(), "m": m, "scheme": scheme.label(), "trials": trials,
            "success": s.success_rate, "collisions": s.mean_collisions,
            "corruptions": corruptions,
        }));
    }
    (table, rows)
}

/// Potential dynamics around an error burst: the per-iteration G*, H*,
/// B*, errors+collisions and the φ̂ proxy of §4.1, from the iteration
/// trace of one run with a 10-round burst at iteration 3, followed by a
/// summary row with the run's verdict.
fn potential_sweep(_tier: &Tier, seed: u64) -> (Table, Vec<Value>) {
    let w = protocol::workloads::Gossip::new(netgraph::topology::ring(5), 8, 3);
    let g = protocol::Workload::graph(&w);
    let sim = Simulation::new(&w, SchemeConfig::algorithm_a(g, seed.wrapping_add(5)), 4);
    let start = sim.geometry().phase_start(3, PhaseKind::Simulation);
    let link = netgraph::DirectedLink { from: 1, to: 2 };
    let atk = netsim::attacks::BurstLink::new(g, link, start, 10);
    let opts = RunOptions {
        record_trace: true,
        ..Default::default()
    };
    let out = sim.run(Box::new(atk), opts);
    let mut table = Table::new(
        "Potential dynamics — G*, H*, B*, φ̂ around an error burst at iteration 3",
        &["iter", "G*", "H*", "B*", "EHC", "phi_hat"],
    );
    let mut rows = Vec::new();
    for s in &out.instrumentation.samples {
        table.push_row(vec![
            s.iteration.to_string(),
            s.g_star.to_string(),
            s.h_star.to_string(),
            s.b_star.to_string(),
            s.ehc.to_string(),
            format!("{:.0}", s.potential_proxy),
        ]);
        rows.push(serde_json::to_value(s).expect("sample serializes"));
    }
    rows.push(json!({
        "row": "summary", "burst_iteration": 3u64, "success": out.success,
        "collisions": out.instrumentation.hash_collisions,
    }));
    (table, rows)
}

/// §5: uniform CRS vs. exchanged δ-biased randomness (PRG and AGHP
/// expansion) at equal k and τ under iid noise at 0.01/m, plus the cost
/// of an attack aimed at the seed exchange itself.
fn randomness_sweep(tier: &Tier, seed: u64) -> (Table, Vec<Value>) {
    let w = protocol::workloads::TokenRing::new(4, 4, 3);
    let g = protocol::Workload::graph(&w).clone();
    let m = g.edge_count() as f64;
    // Isolate the randomness variable: same k and τ as the CRS scheme.
    let exchanged = |kind| {
        let mut c = SchemeConfig::algorithm_b(&g, 6);
        c.k_param = g.edge_count();
        c.hash_bits = 8;
        if let mpic::RandomnessMode::Exchanged { expansion, .. } = &mut c.randomness {
            *expansion = kind;
        }
        c
    };
    let variants = [
        ("crs", SchemeConfig::algorithm_a(&g, seed.wrapping_add(77))),
        ("exch_prg", exchanged(SeedExpansion::Prg)),
        ("exch_aghp", exchanged(SeedExpansion::Aghp)),
    ];
    let trials = tier.noise_trials;
    let mut table = Table::new(
        "§5 — CRS vs exchanged seeds (PRG and AGHP δ-biased expansion)",
        &["variant", "ok", "blowup", "coll", "corr", "achieved_f"],
    );
    let mut rows = Vec::new();
    for (variant, cfg) in variants {
        let (mut ok, mut blowup, mut coll, mut frac) = (0usize, 0.0, 0.0, 0.0);
        for t in 0..trials as u64 {
            let sim = Simulation::new(&w, cfg.clone(), seed.wrapping_add(1000 + t));
            let geo = sim.geometry();
            let predicted = sim.predicted_cc();
            let rounds = geo.setup + sim.iterations() as u64 * geo.iteration_rounds();
            let attack = AttackSpec::Iid { fraction: 0.01 / m };
            let adv = attack.build(&g, geo, predicted, rounds, seed.wrapping_add(2000 + t));
            let opts = RunOptions {
                noise_budget: (0.02 / m * predicted as f64) as u64,
                ..Default::default()
            };
            let out = sim.run(adv, opts);
            ok += usize::from(out.success);
            blowup += out.blowup;
            coll += out.instrumentation.hash_collisions as f64;
            frac += out.stats.noise_fraction();
        }
        let t = trials.max(1) as f64;
        let (ok, blowup, coll, frac) = (ok as f64 / t, blowup / t, coll / t, frac / t);
        table.push_row(vec![
            variant.to_string(),
            format!("{ok:.2}"),
            format!("{blowup:.1}"),
            format!("{coll:.1}"),
            "-".into(),
            format!("{frac:.6}"),
        ]);
        rows.push(json!({
            "variant": variant, "trials": trials, "success": ok, "blowup": blowup,
            "collisions": coll, "achieved_fraction": frac,
        }));
    }
    let sim = Simulation::new(&w, exchanged(SeedExpansion::Prg), seed.wrapping_add(9));
    let adv = AttackSpec::Phase {
        phase: PhaseKind::Setup,
        prob: 0.25,
    }
    .build(
        &g,
        sim.geometry(),
        sim.predicted_cc(),
        0,
        seed.wrapping_add(5),
    );
    let out = sim.run(adv, RunOptions::default());
    table.push_row(vec![
        "setup_attack".into(),
        out.success.to_string(),
        "-".into(),
        "-".into(),
        out.stats.corruptions.to_string(),
        format!("{:.6}", out.stats.noise_fraction()),
    ]);
    rows.push(json!({
        "variant": "setup_attack", "success": out.success,
        "corruptions": out.stats.corruptions,
        "achieved_fraction": out.stats.noise_fraction(),
    }));
    (table, rows)
}

/// Round blow-up vs. protocol sparsity: at equal round complexity
/// rc(Π), the simulated round count follows the protocol's
/// communication cc(Π), so a sparse protocol (one token hop per round)
/// pays a far smaller round blow-up than a fully utilized one.
fn sparsity_sweep(tier: &Tier, seed: u64) -> (Table, Vec<Value>) {
    let workloads = [
        (WorkloadSpec::TokenRing { n: 6, laps: 5 }, 30u64),
        (
            WorkloadSpec::Gossip {
                topo: TopoSpec::Ring(6),
                rounds: 30,
            },
            30u64,
        ),
    ];
    let mut table = Table::new(
        "Round blow-up vs protocol sparsity",
        &[
            "workload",
            "cc(Pi)",
            "rc(Pi)",
            "rounds(sim)",
            "round_blowup",
        ],
    );
    let mut rows = Vec::new();
    for (w, rc) in workloads {
        let (s, trial_rows) = run_many(
            w,
            Scheme::A,
            AttackSpec::None,
            tier.noise_trials,
            seed.wrapping_add(700),
        );
        let payload = trial_rows[0].payload_cc;
        let round_blowup = s.mean_rounds / rc as f64;
        table.push_row(vec![
            w.label().to_string(),
            payload.to_string(),
            rc.to_string(),
            format!("{:.0}", s.mean_rounds),
            format!("{round_blowup:.1}"),
        ]);
        rows.push(json!({
            "workload": w.label(), "trials": tier.noise_trials, "payload_cc": payload,
            "rc_pi": rc, "rounds_sim": s.mean_rounds, "round_blowup": round_blowup,
            "cc_blowup": s.mean_blowup,
        }));
    }
    (table, rows)
}

/// Topology scaling, serial vs. `Parallelism::Threads(t)` on the
/// word-batched wire path. Outcomes are asserted byte-identical across
/// thread counts (the `parallel_equivalence` contract); the timing
/// columns record this machine's wall clock and are diffed only within
/// tolerance. Thread counts are pinned per tier (not `nproc`) so the row
/// set is machine-independent. Topologies with n ≥ 128 also report
/// Algorithm A's decode rate under iid noise at 0.002/m (`noisy_*`).
fn scaling_sweep(tier: &Tier, seed: u64) -> (Table, Vec<Value>) {
    use netsim::attacks::NoNoise;
    let mut table = Table::new(
        "Topology scaling — serial vs. threads (byte-identical outcomes)",
        &[
            "topology",
            "n",
            "m",
            "threads",
            "serial",
            "threaded",
            "speedup",
            "ok",
            "ok@.002/m",
        ],
    );
    let mut rows = Vec::new();
    for topo in tier.scaling_topos {
        let g = topo.build(1);
        let w = protocol::workloads::Gossip::new(g.clone(), 2, 41);
        let base = SchemeConfig::algorithm_a(protocol::Workload::graph(&w), seed);
        let mut scratch = RunScratch::new();
        // Warm-up run per configuration: the timed run measures the
        // engine, not the first arena allocation.
        let timed = |par: Parallelism, scratch: &mut RunScratch| {
            let mut cfg = base.clone();
            cfg.parallelism = par;
            let sim = Simulation::new(&w, cfg, 1);
            sim.run_with_scratch(Box::new(NoNoise), RunOptions::default(), scratch);
            let t = Instant::now();
            let out = sim.run_with_scratch(Box::new(NoNoise), RunOptions::default(), scratch);
            (t.elapsed(), out)
        };
        let noisy = (g.node_count() >= 128).then(|| {
            let spec = WorkloadSpec::Gossip {
                topo: *topo,
                rounds: 2,
            };
            let fraction = 0.002 / g.edge_count() as f64;
            let attack = AttackSpec::Iid { fraction };
            run_many(
                spec,
                Scheme::A,
                attack,
                tier.noise_trials,
                seed.wrapping_add(950),
            )
            .0
        });
        let (serial_t, serial_out) = timed(Parallelism::Serial, &mut scratch);
        for &t in tier.scaling_threads {
            let (par_t, par_out) = timed(Parallelism::Threads(t), &mut scratch);
            assert_eq!(
                serial_out.stats,
                par_out.stats,
                "{}: outcome diverged",
                topo.label()
            );
            assert_eq!(serial_out.success, par_out.success, "{}", topo.label());
            let speedup = serial_t.as_secs_f64() / par_t.as_secs_f64().max(f64::MIN_POSITIVE);
            table.push_row(vec![
                topo.label(),
                g.node_count().to_string(),
                g.edge_count().to_string(),
                t.to_string(),
                format!("{serial_t:.2?}"),
                format!("{par_t:.2?}"),
                format!("{speedup:.2}x"),
                serial_out.success.to_string(),
                noisy
                    .as_ref()
                    .map_or("-".into(), |s| format!("{:.2}", s.success_rate)),
            ]);
            let mut row = json!({
                "topology": topo.label(), "n": g.node_count(), "m": g.edge_count(),
                "threads": t, "success": serial_out.success,
                "rounds": serial_out.stats.rounds, "cc": serial_out.stats.cc,
                "serial_ns": serial_t.as_nanos() as u64,
                "threads_ns": par_t.as_nanos() as u64,
                "speedup": speedup, "outcome_identical": true,
            });
            if let (Some(s), Value::Object(fields)) = (&noisy, &mut row) {
                fields.push(("noisy_trials".into(), json!(tier.noise_trials)));
                fields.push(("noisy_success".into(), json!(s.success_rate)));
                fields.push(("noisy_blowup".into(), json!(s.mean_blowup)));
            }
            rows.push(row);
        }
    }
    (table, rows)
}

/// The adversary leaderboard: each phase-aware attack beside its closest
/// oblivious counterpart at equal corruption budget, scored on the
/// instrumented damage metric it targets. All rows are deterministic in
/// the seed.
fn leaderboard_sweep(tier: &Tier, seed: u64) -> (Table, Vec<Value>) {
    use netsim::attacks::{
        BurstLink, CrossIterationHunter, FlagFlipper, IidNoise, MeetingPointSplitter, Pair,
        PhaseTargeted, RewindSuppressor,
    };
    use netsim::Adversary;

    let w = protocol::workloads::Gossip::new(netgraph::topology::ring(5), 6, 17);
    let g = protocol::Workload::graph(&w).clone();
    let cfg = SchemeConfig::algorithm_a(&g, seed.wrapping_add(23));
    let sim = Simulation::new(&w, cfg.clone(), 1);
    let geo = sim.geometry();
    let start = geo.phase_start(1, PhaseKind::Simulation);
    let burst = |g: &netgraph::Graph| -> Box<dyn Adversary> {
        Box::new(BurstLink::new(
            g,
            netgraph::DirectedLink { from: 1, to: 2 },
            start,
            8,
        ))
    };
    let mut entries: Vec<(&str, &str, Box<dyn Adversary>, u64)> = vec![
        (
            "mp_splitter",
            "adaptive",
            Box::new(MeetingPointSplitter::new(&g, cfg.hash_bits, 2)),
            40,
        ),
        (
            "phase_mp",
            "oblivious",
            Box::new(PhaseTargeted::new(
                &g,
                geo,
                PhaseKind::MeetingPoints,
                0.02,
                7,
            )),
            40,
        ),
        (
            "flag_flipper",
            "adaptive",
            Box::new(FlagFlipper::new(&g, 1)),
            6,
        ),
        (
            "phase_fp",
            "oblivious",
            Box::new(PhaseTargeted::new(&g, geo, PhaseKind::FlagPassing, 0.05, 7)),
            6,
        ),
        (
            "burst+rw_suppressor",
            "adaptive",
            Box::new(Pair(burst(&g), Box::new(RewindSuppressor::new(&g, 4)))),
            11,
        ),
        (
            "burst+phase_rw",
            "oblivious",
            Box::new(Pair(
                burst(&g),
                Box::new(PhaseTargeted::new(&g, geo, PhaseKind::Rewind, 0.02, 7)),
            )),
            11,
        ),
        ("burst_alone", "oblivious", burst(&g), 11),
    ];

    let mut results: Vec<(&str, &str, u64, mpic::SimOutcome)> = entries
        .drain(..)
        .map(|(label, family, adv, budget)| {
            let opts = RunOptions {
                noise_budget: budget,
                record_trace: false,
                expose_view: true,
            };
            (label, family, budget, sim.run(adv, opts))
        })
        .collect();

    // The §6.1 cross-iteration hunter against its prey (τ = 4) and, on
    // the deeper tiers, against τ = Θ(log m). Unbounded budgets list as 0.
    let wc = protocol::workloads::Gossip::new(netgraph::topology::clique(6), 6, 51);
    let gc = protocol::Workload::graph(&wc).clone();
    let hunter = || Box::new(CrossIterationHunter::new(gc.edge_count(), 1, 8));
    let mut weak = SchemeConfig::algorithm_a(&gc, seed.wrapping_add(61));
    weak.hash_bits = 4;
    let simc = Simulation::new(&wc, weak, 6);
    let out = simc.run(hunter(), RunOptions::default());
    results.push(("hunter_tau4", "adaptive", 0, out));
    let out = simc.run(
        Box::new(IidNoise::new(&gc, 0.001, 3)),
        RunOptions::default(),
    );
    results.push(("iid_tau4", "oblivious", 0, out));
    if tier.deep {
        let mut strong = SchemeConfig::algorithm_a(&gc, seed.wrapping_add(61));
        strong.hash_bits = (3.0 * (gc.edge_count() as f64).log2()).ceil() as u32;
        let out = Simulation::new(&wc, strong, 6).run(hunter(), RunOptions::default());
        results.push(("hunter_tau_strong", "adaptive", 0, out));
    }

    let mut table = Table::new(
        "Adversary leaderboard — phase-aware attacks vs. oblivious counterparts",
        &[
            "attack", "family", "budget", "corr", "coll", "mp_trunc", "stalled", "rw_trunc", "ok",
        ],
    );
    let mut rows = Vec::new();
    for (label, family, budget, out) in &results {
        let ins = &out.instrumentation;
        table.push_row(vec![
            label.to_string(),
            family.to_string(),
            if *budget == 0 {
                "inf".into()
            } else {
                budget.to_string()
            },
            out.stats.corruptions.to_string(),
            ins.hash_collisions.to_string(),
            ins.mp_truncations.to_string(),
            ins.stalled_iterations.to_string(),
            ins.rewind_truncations.to_string(),
            out.success.to_string(),
        ]);
        rows.push(json!({
            "attack": label, "family": family, "budget": budget,
            "corruptions": out.stats.corruptions,
            "collisions": ins.hash_collisions,
            "mp_truncations": ins.mp_truncations,
            "stalled_iterations": ins.stalled_iterations,
            "rewind_truncations": ins.rewind_truncations,
            "success": out.success,
        }));
    }
    (table, rows)
}

/// The request population of a mix: small workloads so a load test
/// measures the service, not one giant simulation. Every 8th request in
/// `Mixed` rides the high-priority lane.
fn mix_requests(mix: Mix, n: usize, base_seed: u64) -> Vec<(SimRequest, Priority)> {
    let ring = WorkloadSpec::Gossip {
        topo: TopoSpec::Ring(4),
        rounds: 5,
    };
    let token = WorkloadSpec::TokenRing { n: 4, laps: 2 };
    let rotation: Vec<(WorkloadSpec, Scheme, AttackSpec)> = match mix {
        Mix::Small => vec![(token, Scheme::A, AttackSpec::None)],
        Mix::Schemes => vec![
            (ring, Scheme::A, AttackSpec::None),
            (ring, Scheme::B, AttackSpec::None),
            (ring, Scheme::C, AttackSpec::None),
        ],
        Mix::Mixed => vec![
            (ring, Scheme::A, AttackSpec::None),
            (token, Scheme::A, AttackSpec::Iid { fraction: 0.002 }),
            (ring, Scheme::B, AttackSpec::None),
            (token, Scheme::C, AttackSpec::None),
            (ring, Scheme::NoCoding, AttackSpec::None),
        ],
    };
    (0..n)
        .map(|i| {
            let (workload, scheme, ref attack) = rotation[i % rotation.len()];
            let pri = if mix == Mix::Mixed && i % 8 == 7 {
                Priority::High
            } else {
                Priority::Normal
            };
            let req = SimRequest {
                workload,
                scheme,
                attack: attack.clone(),
                fault: FaultSpec::None,
                seed: derive_trial_seed(base_seed, i),
            };
            (req, pri)
        })
        .collect()
}

/// A [`SimService`] sized for a load of `capacity` requests.
fn load_service(workers: usize, reject: bool, capacity: usize) -> SimService<SimRequest> {
    sim_service(ServiceConfig {
        workers,
        queue_capacity: capacity.max(16),
        backpressure: if reject {
            Backpressure::Reject {
                retry_after: Duration::from_millis(2),
            }
        } else {
            Backpressure::Block
        },
        ..ServiceConfig::default()
    })
}

#[derive(Default)]
struct LoadReport {
    e2e: LatencyHistogram,
    queue: LatencyHistogram,
    exec: LatencyHistogram,
    served: u64,
    cache_hits: u64,
    rejected: u64,
    cancelled: u64,
    /// Tickets that resolved without a result: lost replies, contained
    /// panics, expired deadlines, and submits refused at shutdown.
    lost: u64,
    elapsed: Duration,
}

impl LoadReport {
    fn failed(&self) -> u64 {
        self.rejected + self.cancelled + self.lost
    }

    fn throughput(&self) -> f64 {
        self.served as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn cache_hit_rate(&self) -> f64 {
        self.cache_hits as f64 / self.served.max(1) as f64
    }
}

/// Drives `population` through `svc` open loop: request `i` is submitted
/// at `start + i/rate`, and a collector thread awaits the replies so
/// submission never blocks on completed work.
fn drive_open_loop(
    svc: &SimService<SimRequest>,
    rate: f64,
    population: Vec<(SimRequest, Priority)>,
) -> LoadReport {
    let client = svc.client();
    let (tickets_tx, tickets_rx) =
        crossbeam::channel::bounded::<(Instant, Ticket<TrialResult>)>(population.len().max(1));
    let collector = std::thread::spawn(move || {
        let mut r = LoadReport::default();
        while let Ok((submitted, ticket)) = tickets_rx.recv() {
            let Ok(resp) = ticket.wait() else {
                r.lost += 1;
                continue;
            };
            r.e2e.record(submitted.elapsed().as_nanos() as u64);
            r.queue.record(resp.queue_ns);
            r.exec.record(resp.exec_ns);
            match resp.outcome {
                // A noisy mix legitimately produces unsuccessful trials;
                // either way the *request* succeeded.
                serve::Outcome::Done(_) => {
                    r.served += 1;
                    r.cache_hits += u64::from(resp.cache_hit);
                }
                serve::Outcome::Cancelled => r.cancelled += 1,
                serve::Outcome::Failed { .. } | serve::Outcome::TimedOut => r.lost += 1,
            }
        }
        r
    });

    let (mut rejected, mut refused) = (0, 0);
    let start = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / rate.max(1e-3));
    for (i, (req, pri)) in population.into_iter().enumerate() {
        let due = start + interval.mul_f64(i as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        match client.submit(req, pri) {
            Ok(t) => tickets_tx
                .send((Instant::now(), t))
                .expect("collector outlives the submit loop"),
            Err(SubmitError::Overloaded { .. }) => rejected += 1,
            Err(SubmitError::ShuttingDown) => refused += 1,
        }
    }
    drop(tickets_tx);
    let mut report = collector.join().expect("collector panicked");
    report.rejected += rejected;
    report.lost += refused;
    report.elapsed = start.elapsed();
    report
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Serve latency/throughput: the `mixed` load population open loop
/// against `SimService`, plus a closed-loop identity spot-check of
/// served rows against direct `run_trial`. Served/failed counts are
/// outcomes; the latency and throughput columns are this machine's wall
/// clock.
fn serve_sweep(tier: &Tier, seed: u64) -> (Table, Vec<Value>) {
    let n = tier.serve_requests;
    let population = mix_requests(Mix::Mixed, n, seed);
    let svc = load_service(0, false, n);
    let load = drive_open_loop(&svc, tier.serve_rate, population.clone());

    // Identity spot-check: the first 12 population seeds, served closed
    // loop, must be byte-identical to direct `run_trial` rows.
    let checks = 12.min(n);
    for (req, pri) in population.into_iter().take(checks) {
        let row = svc
            .submit(req.clone(), pri)
            .expect("service accepting")
            .wait()
            .expect("reply lost")
            .outcome
            .done()
            .expect("no cancellations here");
        let direct = run_trial(req.workload, req.scheme, req.attack.clone(), req.seed);
        assert_eq!(row, direct, "service diverged from run_trial on {req:?}");
    }
    svc.shutdown();
    assert_eq!(load.served as usize, n, "open-loop run lost requests");
    assert_eq!(load.failed(), 0, "open-loop run had failed requests");

    let mut table = Table::new(
        "Serve — open-loop load through SimService (mixed workloads)",
        &[
            "requests",
            "rate",
            "served",
            "failed",
            "rps",
            "e2e_p50",
            "e2e_p99",
            "queue_p99",
            "exec_p50",
        ],
    );
    table.push_row(vec![
        n.to_string(),
        format!("{:.0}/s", tier.serve_rate),
        load.served.to_string(),
        load.failed().to_string(),
        format!("{:.0}", load.throughput()),
        format!("{:.0}us", us(load.e2e.quantile(0.5))),
        format!("{:.0}us", us(load.e2e.quantile(0.99))),
        format!("{:.0}us", us(load.queue.quantile(0.99))),
        format!("{:.0}us", us(load.exec.quantile(0.5))),
    ]);
    let rows = vec![
        json!({
            "row": "load", "mix": Mix::Mixed.name(), "requests": n, "served": load.served,
            "failed": load.failed(), "offered_rps": tier.serve_rate,
            "throughput_rps": load.throughput(),
            "e2e_p50_us": us(load.e2e.quantile(0.5)), "e2e_p90_us": us(load.e2e.quantile(0.9)),
            "e2e_p99_us": us(load.e2e.quantile(0.99)), "e2e_max_us": us(load.e2e.max()),
            "queue_p99_us": us(load.queue.quantile(0.99)),
            "exec_p50_us": us(load.exec.quantile(0.5)),
            "exec_p99_us": us(load.exec.quantile(0.99)),
        }),
        json!({"row": "identity", "requests": checks, "identical": true}),
    ];
    (table, rows)
}

/// Fault churn: injected link/party fault schedules against Algorithms
/// A and B, pinning the **explicit degradation semantics** (every trial
/// decodes correctly or reports `Degraded` with a reason — never
/// silently wrong) and the fault/resync counters. All keys are
/// outcome-exact: the schedules, seeds and counters are deterministic,
/// so there is nothing timing-shaped to tolerate.
fn churn_sweep(tier: &Tier, seed: u64) -> (Table, Vec<Value>) {
    use bench::run_many_faulted;
    let churn = |link_rate, crash_rate, outage_frac| FaultSpec::Churn {
        link_rate,
        crash_rate,
        outage_frac,
    };
    let outage = FaultSpec::Burst {
        start_frac: 0.3,
        len_frac: 0.1,
        fraction: 0.5,
    };
    // Row seeds derive from the position in this list, so new schedules
    // go at the end.
    let faults = [
        ("none", FaultSpec::None),
        ("churn-lo", churn(0.15, 0.0, 0.04)),
        ("churn-hi", churn(0.5, 0.25, 0.08)),
        ("outage", outage),
        ("crash", churn(0.0, 0.5, 0.1)),
    ];
    let w = WorkloadSpec::Gossip {
        topo: TopoSpec::Ring(5),
        rounds: 6,
    };
    let mut table = Table::new(
        "Fault churn — decode-or-degrade under injected link/party faults",
        &[
            "fault",
            "scheme",
            "decoded",
            "deg:fault",
            "deg:noise",
            "links_down",
            "crash_rounds",
            "resyncs",
        ],
    );
    let mut rows = Vec::new();
    for (fi, (label, fault)) in faults.iter().enumerate() {
        for (si, scheme) in [Scheme::A, Scheme::B].into_iter().enumerate() {
            let attack = AttackSpec::Iid { fraction: 0.001 };
            let base = seed
                .wrapping_add(7_000 * fi as u64)
                .wrapping_add(70 * si as u64);
            let (_, trial_rows) =
                run_many_faulted(w, scheme, attack, *fault, tier.churn_trials, base);
            let decoded = trial_rows.iter().filter(|r| r.degraded == 0).count();
            let deg_fault = trial_rows.iter().filter(|r| r.degraded == 2).count();
            let deg_noise = trial_rows.iter().filter(|r| r.degraded == 1).count();
            // Never silently wrong: the verdict buckets partition the
            // population and success ⇔ decoded, in every tier.
            assert_eq!(decoded + deg_fault + deg_noise, trial_rows.len());
            assert_eq!(decoded, trial_rows.iter().filter(|r| r.success).count());
            let links_down: u64 = trial_rows.iter().map(|r| r.links_downed).sum();
            let crash_rounds: u64 = trial_rows.iter().map(|r| r.crash_rounds).sum();
            let resyncs: u64 = trial_rows.iter().map(|r| r.resync_rewinds).sum();
            let corruptions: u64 = trial_rows.iter().map(|r| r.corruptions).sum();
            let cc: u64 = trial_rows.iter().map(|r| r.cc).sum();
            let rounds: u64 = trial_rows.iter().map(|r| r.rounds).sum();
            table.push_row(vec![
                label.to_string(),
                scheme.label(),
                decoded.to_string(),
                deg_fault.to_string(),
                deg_noise.to_string(),
                links_down.to_string(),
                crash_rounds.to_string(),
                resyncs.to_string(),
            ]);
            rows.push(json!({
                "fault": label, "scheme": scheme.label(),
                "trials": tier.churn_trials,
                "decoded": decoded,
                "degraded_fault": deg_fault,
                "degraded_noise": deg_noise,
                "links_downed": links_down,
                "crash_rounds": crash_rounds,
                "resync_rewinds": resyncs,
                "corruptions": corruptions,
                "cc": cc,
                "rounds": rounds,
            }));
        }
    }
    (table, rows)
}

/// Adversary search: the evolutionary outer loop over scripted-attack
/// genomes, seeded from recordings of the leaderboard's hand-built
/// attacks and scored on instrumented damage per budget unit. Every key
/// is an outcome: the search derives entirely from the seed and fans out
/// through the service, whose rows are byte-identical for every worker
/// count and `SIM_THREADS` — so rows diff exactly.
fn search_sweep(tier: &Tier, seed: u64) -> (Table, Vec<Value>) {
    let cfg = if tier.deep {
        bench::SearchConfig::full(seed)
    } else {
        bench::SearchConfig::quick(seed)
    };
    let reports = bench::run_search(&cfg);
    let mut table = Table::new(
        "Adversary search — evolved scripts vs. hand-built seed attacks",
        &[
            "attack",
            "metric",
            "hand",
            "best",
            "hand_corr",
            "best_steps",
            "evaluated",
            "matched",
        ],
    );
    let mut rows = Vec::new();
    for r in &reports {
        // The gen-0 seeding makes this structurally true; a failure here
        // means recording/replay parity broke, not that search got
        // unlucky.
        assert!(
            r.matched,
            "search fell below the hand-built {} on {}",
            r.name, r.metric
        );
        table.push_row(vec![
            r.name.clone(),
            r.metric.clone(),
            r.hand_metric.to_string(),
            r.best_metric.to_string(),
            r.hand_corruptions.to_string(),
            r.best_steps.to_string(),
            r.evaluated.to_string(),
            r.matched.to_string(),
        ]);
        rows.push(json!({
            "attack": r.name, "metric": r.metric,
            "hand_metric": r.hand_metric,
            "hand_corruptions": r.hand_corruptions,
            "best_metric": r.best_metric,
            "best_steps": r.best_steps,
            "best_fitness": r.best_fitness,
            "evaluated": r.evaluated,
            "matched": r.matched,
            "best_script": serde_json::to_value(&r.best_script).expect("script serializes"),
        }));
    }
    (table, rows)
}

type Sweep = fn(&Tier, u64) -> (Table, Vec<Value>);

/// Every sweep `run` executes, in order. Each id names the sweep's
/// `<id>.jsonl` artifact and its committed `expected/<id>.jsonl` fixture.
const SWEEPS: [(&str, Sweep); 13] = [
    ("noise", noise_sweep),
    ("rate", rate_sweep),
    ("blowup_vs_n", blowup_vs_n_sweep),
    ("line_ablation", line_ablation_sweep),
    ("hash_len_vs_hunter", hash_len_vs_hunter_sweep),
    ("potential", potential_sweep),
    ("randomness", randomness_sweep),
    ("sparsity", sparsity_sweep),
    ("scaling", scaling_sweep),
    ("leaderboard", leaderboard_sweep),
    ("serve", serve_sweep),
    ("churn", churn_sweep),
    ("search", search_sweep),
];

fn run_tier(args: &Args) -> std::io::Result<()> {
    let tier = args.tier;
    let sha = git_short_sha();
    let t0 = Instant::now();
    println!("repro: tier={} sha={} seed={}", tier.name, sha, args.seed());
    let mut writer = RunWriter::create(Path::new(args.out()), tier.name, &sha)?;
    for (id, sweep) in SWEEPS {
        let t = Instant::now();
        let (table, rows) = sweep(tier, args.seed());
        println!("\n{}", table.to_markdown());
        println!("[{id}: {} row(s) in {:.1?}]", rows.len(), t.elapsed());
        writer.add_sweep(id, table, &rows)?;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let manifest = Manifest {
        tier: tier.name.into(),
        git_sha: sha,
        seed: args.seed(),
        sim_threads: mpic::sim_threads_env().map(|t| t as u64),
        nproc: std::thread::available_parallelism()
            .map(|p| p.get() as u64)
            .unwrap_or(1),
        unix_time: SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        wall_s,
        workspace_version: env!("CARGO_PKG_VERSION").into(),
        shims: shim_versions(),
        sweeps: writer.sweeps().to_vec(),
    };
    let dir = writer.finish(&manifest)?;
    println!("\nartifacts in {} ({wall_s:.1}s)", dir.display());
    if tier.name == "quick" && wall_s > 60.0 {
        eprintln!("warning: --quick took {wall_s:.0}s, over the 60 s CI budget");
    }
    Ok(())
}

/// The newest `quick-*` run directory under the out root (expectations
/// are quick-tier artifacts, so `diff`/`accept` default to it).
fn latest_quick_run(root: &str) -> PathBuf {
    let mut candidates: Vec<PathBuf> = std::fs::read_dir(root)
        .unwrap_or_else(|e| {
            eprintln!("no run directory {root}: {e}; run `repro run --quick` first");
            std::process::exit(2);
        })
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("quick-"))
        })
        .collect();
    candidates.sort_by_key(|p| {
        std::fs::metadata(p)
            .and_then(|m| m.modified())
            .unwrap_or(SystemTime::UNIX_EPOCH)
    });
    candidates.pop().unwrap_or_else(|| {
        eprintln!("no quick-* run under {root}; run `repro run --quick` first");
        std::process::exit(2);
    })
}

fn diff_mode(args: &Args) -> i32 {
    let fresh = args
        .fresh
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| latest_quick_run(args.out()));
    println!(
        "repro diff: {} vs expectations in {} (tolerance {}x on timing keys)",
        fresh.display(),
        args.expected,
        args.tolerance
    );
    match diff_dirs(Path::new(&args.expected), &fresh, args.tolerance) {
        Ok(report) => {
            for extra in &report.extra {
                println!("  new sweep {extra} (no expectation; informational)");
            }
            if report.drifts.is_empty() {
                println!(
                    "ok: {} file(s), {} row(s), outcome-exact, timings within tolerance",
                    report.files, report.rows
                );
                0
            } else {
                for d in &report.drifts {
                    eprintln!("DRIFT {d}");
                }
                eprintln!(
                    "{} drift(s) across {} file(s); if intentional, re-bless with `repro accept`",
                    report.drifts.len(),
                    report.files
                );
                1
            }
        }
        Err(e) => {
            eprintln!("repro diff: {e}");
            2
        }
    }
}

fn accept_mode(args: &Args) -> i32 {
    let fresh = args
        .fresh
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| latest_quick_run(args.out()));
    let expected = Path::new(&args.expected);
    match bless(&fresh, expected) {
        Ok(copied) => {
            println!(
                "blessed {copied} sweep file(s) from {} into {}",
                fresh.display(),
                expected.display()
            );
            0
        }
        Err(e) => {
            eprintln!("repro accept: {e}");
            2
        }
    }
}

/// Copies every `*.jsonl` of `fresh` into `expected`, or nothing. All
/// sources are read before `expected` is touched, and the copies are
/// staged under temporary names and only renamed into place once every
/// one of them was written, so an unreadable or empty run dir, or a
/// failed write, leaves `expected` as it was. Returns the file count.
fn bless(fresh: &Path, expected: &Path) -> Result<usize, String> {
    let entries = std::fs::read_dir(fresh)
        .map_err(|e| format!("cannot read fresh run dir {}: {e}", fresh.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    if files.is_empty() {
        return Err(format!("no *.jsonl in {}", fresh.display()));
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let bytes = std::fs::read(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let name = f.file_name().expect("read_dir entry has a name");
        sources.push((expected.join(name), bytes));
    }
    std::fs::create_dir_all(expected)
        .map_err(|e| format!("cannot create {}: {e}", expected.display()))?;
    let staged = |dst: &Path| dst.with_extension("jsonl.accept");
    for (i, (dst, bytes)) in sources.iter().enumerate() {
        if let Err(e) = std::fs::write(staged(dst), bytes) {
            for (done, _) in &sources[..=i] {
                let _ = std::fs::remove_file(staged(done));
            }
            return Err(format!("cannot write {}: {e}", dst.display()));
        }
    }
    for (dst, _) in &sources {
        std::fs::rename(staged(dst), dst)
            .map_err(|e| format!("cannot move {} into place: {e}", dst.display()))?;
    }
    Ok(sources.len())
}

/// Closed-loop comparison: the same trial population through the
/// long-lived load service (saturated submission) and through `run_many`
/// — which starts, fills and shuts down a service sized to the batch on
/// every call — with byte-identical rows required on every repetition. Both sides run three times and the
/// fastest repetition counts — the populations are identical work, so
/// min-of-reps compares the engines rather than the scheduler's mood.
/// Returns (service_secs, raw_secs).
fn compare_raw(args: &Args) -> Result<(f64, f64), String> {
    let workload = WorkloadSpec::TokenRing { n: 4, laps: 2 };
    let scheme = Scheme::A;
    let attack = AttackSpec::Iid { fraction: 0.002 };
    let trials = if args.quick { 24 } else { 200 };
    let reps = 3;

    let svc = load_service(args.workers, false, trials);
    let mut service_s = f64::INFINITY;
    let mut raw_s = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let tickets: Vec<Ticket<TrialResult>> = (0..trials)
            .map(|i| {
                let req = SimRequest {
                    workload,
                    scheme,
                    attack: attack.clone(),
                    fault: FaultSpec::None,
                    seed: derive_trial_seed(args.seed(), i),
                };
                svc.submit(req, Priority::Normal)
                    .expect("blocking submit cannot fail while the service runs")
            })
            .collect();
        // Collect newest-first: each reply channel buffers its response,
        // so waiting on the (FIFO-)last ticket first sleeps once for the
        // whole batch instead of context-switching per reply — on a
        // single core that per-reply ping-pong would bill scheduler
        // overhead to the service that run_many never pays.
        let mut service_rows: Vec<Option<TrialResult>> = tickets
            .into_iter()
            .rev()
            .map(|t| t.wait().ok().and_then(|r| r.outcome.done()))
            .collect();
        service_rows.reverse();
        service_s = service_s.min(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        let (_, raw_rows) = run_many(workload, scheme, attack.clone(), trials, args.seed());
        raw_s = raw_s.min(t1.elapsed().as_secs_f64());

        if !service_rows
            .iter()
            .zip(&raw_rows)
            .all(|(s, r)| s.as_ref() == Some(r))
        {
            svc.shutdown();
            return Err("service results diverged from run_many on the same seeds".into());
        }
    }
    svc.shutdown();
    Ok((service_s, raw_s))
}

/// `repro load`: one open-loop load against the service, rows appended
/// to `--out`; returns the process exit code.
fn load_mode(args: &Args) -> i32 {
    println!(
        "repro load: mix={} rate={}req/s requests={} workers={} backpressure={}",
        args.mix.name(),
        args.rate,
        args.requests,
        if args.workers == 0 {
            "auto".into()
        } else {
            args.workers.to_string()
        },
        if args.reject { "reject" } else { "block" },
    );
    let svc = load_service(args.workers, args.reject, args.requests);
    let population = mix_requests(args.mix, args.requests, args.seed());
    let report = drive_open_loop(&svc, args.rate, population);
    let stats = svc.shutdown();
    assert_eq!(
        stats.served, report.served,
        "service and collector disagree on served count"
    );

    println!(
        "served {} / {} in {:.2}s  ({:.1} req/s), {} rejected, {} cancelled, {} lost, cache hit rate {:.3}",
        report.served,
        args.requests,
        report.elapsed.as_secs_f64(),
        report.throughput(),
        report.rejected,
        report.cancelled,
        report.lost,
        report.cache_hit_rate(),
    );
    for (name, h) in [
        ("e2e", &report.e2e),
        ("queue", &report.queue),
        ("exec", &report.exec),
    ] {
        let q = |p| us(h.quantile(p));
        println!(
            "{name:<8} p50 {:>9.1}us  p90 {:>9.1}us  p99 {:>9.1}us  max {:>9.1}us",
            q(0.5),
            q(0.9),
            q(0.99),
            us(h.max()),
        );
    }

    let mut rows = vec![json!({
        "id": format!("serve/{}/r{}", args.mix.name(), args.rate as u64),
        "requests": args.requests,
        "served": report.served,
        "rejected": report.rejected,
        "cancelled": report.cancelled,
        "lost": report.lost,
        "throughput_rps": report.throughput(),
        "cache_hit_rate": report.cache_hit_rate(),
        "e2e_p50_us": us(report.e2e.quantile(0.5)),
        "e2e_p90_us": us(report.e2e.quantile(0.9)),
        "e2e_p99_us": us(report.e2e.quantile(0.99)),
        "e2e_max_us": us(report.e2e.max()),
        "queue_p99_us": us(report.queue.quantile(0.99)),
        "exec_p50_us": us(report.exec.quantile(0.5)),
        "exec_p99_us": us(report.exec.quantile(0.99)),
        "workers": args.workers,
        "quick": args.quick,
    })];

    let mut code = 0;
    if args.compare_raw {
        match compare_raw(args) {
            Ok((service_s, raw_s)) => {
                let ratio = service_s / raw_s.max(1e-9);
                println!(
                    "compare-raw: service {service_s:.3}s vs run_many {raw_s:.3}s \
                     (ratio {ratio:.3}, rows byte-identical)"
                );
                rows.push(json!({
                    "id": "serve/compare_raw/tokenring_a_iid",
                    "service_s": service_s,
                    "raw_s": raw_s,
                    "ratio": ratio,
                    "quick": args.quick,
                }));
            }
            Err(e) => {
                eprintln!("COMPARE-RAW FAILED: {e}");
                code = 1;
            }
        }
    }

    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.out())
    {
        Ok(mut f) => {
            for row in &rows {
                if let Err(e) = writeln!(f, "{row}") {
                    eprintln!("could not append to {}: {e}", args.out());
                }
            }
            println!("appended {} row(s) to {}", rows.len(), args.out());
        }
        Err(e) => eprintln!("could not open {} for appending: {e}", args.out()),
    }

    if args.quick {
        if report.served == 0 || report.failed() > 0 {
            eprintln!(
                "QUICK GATE FAILED: served={} failed={}",
                report.served,
                report.failed()
            );
            return 1;
        }
        println!("quick gate ok: nonzero throughput, zero failed requests");
    }
    code
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let code = match args.mode {
        Mode::Run => match run_tier(&args) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("repro run failed: {e}");
                1
            }
        },
        Mode::Diff => diff_mode(&args),
        Mode::Accept => accept_mode(&args),
        Mode::Load => load_mode(&args),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::report::{is_volatile_key, load_rows};

    fn parse(args: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&argv)
    }

    fn expected_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../expected")
    }

    #[test]
    fn malformed_arguments_are_errors_not_panics() {
        let cases: &[&[&str]] = &[
            &["run", "--seed", "abc"],
            &["load", "--rate", "x"],
            &["load", "--rate", "0"],
            &["load", "--requests", "many"],
            &["load", "--requests", "-1"],
            &["diff", "--tolerance", "0.5"],
            &["diff", "--tolerance", "1"],
            &["diff", "--tolerance", "NaN"],
            &["run", "--bogus"],
            &["sideways"],
            &["run", "--seed"],
            &["diff", "--fresh"],
            &["load", "--mix", "huge"],
            &["load", "--backpressure", "drop"],
        ];
        for case in cases {
            let err = parse(case).expect_err(&format!("{case:?} must be rejected"));
            assert!(!err.is_empty(), "{case:?}: empty error message");
        }
    }

    /// `accept` on a missing, an empty or an unreadable run dir exits 2
    /// and leaves the expectation dir uncreated.
    #[test]
    fn accept_rejects_bad_fresh_dir_and_writes_nothing() {
        let root = std::env::temp_dir().join(format!("repro-accept-{}", std::process::id()));
        let empty = root.join("empty");
        let unreadable = root.join("unreadable");
        std::fs::create_dir_all(&empty).unwrap();
        // A directory named like a sweep file: listed, but not readable
        // as one.
        std::fs::create_dir_all(unreadable.join("sweep.jsonl")).unwrap();
        let expected = root.join("expected");
        for fresh in [root.join("missing"), empty, unreadable] {
            let args = parse(&[
                "accept",
                "--fresh",
                fresh.to_str().unwrap(),
                "--expected",
                expected.to_str().unwrap(),
            ])
            .expect("valid");
            assert_eq!(accept_mode(&args), 2, "{}", fresh.display());
            assert!(!expected.exists(), "{}: wrote expected/", fresh.display());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn defaults_depend_on_mode() {
        let run = parse(&["run"]).expect("valid");
        assert_eq!((run.seed(), run.out()), (2024, "out"));
        let load = parse(&["load", "--quick", "--rate", "1000", "--mix", "small"]).expect("valid");
        assert_eq!((load.seed(), load.out()), (42, "BENCH_serve.json"));
        assert_eq!((load.requests, load.rate), (80, 400.0));
        assert_eq!(load.mix, Mix::Small);
        let seeded = parse(&["load", "--seed", "7", "--out", "x.json"]).expect("valid");
        assert_eq!((seeded.seed(), seeded.out()), (7, "x.json"));
        assert_eq!((seeded.requests, seeded.rate), (400, 200.0));
    }

    /// `diff_dirs` reports a sweep without a fixture only as "extra", so
    /// an unguarded sweep would pass `repro diff` silently.
    #[test]
    fn every_sweep_has_a_fixture_and_every_fixture_a_sweep() {
        let mut ids: Vec<&str> = SWEEPS.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        let mut stems: Vec<String> = std::fs::read_dir(expected_dir())
            .expect("expected/ readable")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .map(|p| p.file_stem().expect("named").to_string_lossy().into_owned())
            .collect();
        stems.sort_unstable();
        assert_eq!(ids, stems);
    }

    /// Only `scaling` and `serve` measure wall clock. Every other fixture
    /// key, and the noisy-decode keys on `scaling`, must be diffed
    /// exactly, so none may end in a suffix `is_volatile_key` treats as
    /// timing.
    #[test]
    fn outcome_keys_are_not_classified_as_timing() {
        for (id, _) in SWEEPS {
            if id == "serve" {
                continue;
            }
            let rows = load_rows(&expected_dir().join(format!("{id}.jsonl"))).expect("fixture");
            for row in &rows {
                let Value::Object(fields) = row else {
                    panic!("{id}: non-object row")
                };
                for (key, _) in fields {
                    if id != "scaling" || key.starts_with("noisy_") {
                        assert!(
                            !is_volatile_key(key),
                            "{id}.{key} would be tolerance-checked"
                        );
                    }
                }
            }
        }
    }
}
