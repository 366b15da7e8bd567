//! The mpic benchmark: one command per (workload, seed) run.
//!
//! ```text
//! mpicbench --workload large_clean|noisy_sweep|served_mix \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: with `--trace 0` the
//! end-to-end metrics of [`END_TO_END`], with `--trace 1` the per-layer
//! metrics of [`PER_LAYER`]. The lines before it are human-readable
//! notes. The process exits 1 when any correctness check failed and 2
//! on bad arguments. See `README.md` in this directory for what each
//! workload and metric is for.

mod common;
mod large_clean;
mod noisy_sweep;
mod served_mix;
mod trace;

use common::Report;

/// End-to-end metrics: name, unit. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("trials_per_s", "1/s"),
    ("sim_mbit_per_s", "Mbit/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name, unit. A metric whose layer
/// a workload does not reach reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ops.failed_frac", "share"),
    ("outcome.decoded_frac", "share"),
    ("outcome.blowup_mean", "ratio"),
    ("protocol.build_ns", "ns"),
    ("core.artifact.lookup_ns", "ns"),
    ("core.artifact.hit_ratio", "share"),
    ("core.construct_ns", "ns"),
    ("netsim.attack_build_ns", "ns"),
    ("netsim.fault_build_ns", "ns"),
    ("core.run_ns", "ns"),
    ("core.run.ns_per_round", "ns"),
    ("core.run.ns_per_link_iteration", "ns"),
    ("bench.trial_ns", "ns"),
    ("bench.self_share", "share"),
    ("protocol.self_share", "share"),
    ("core.self_share", "share"),
    ("netsim.self_share", "share"),
    ("serve.self_share", "share"),
    ("trace.overhead_frac", "ratio"),
    ("core.iterations", "count"),
    ("core.progress_ratio", "ratio"),
    ("core.useful_bits_ratio", "ratio"),
    ("core.mp.resets", "count"),
    ("core.rewind.truncations", "count"),
    ("core.rewind.wave_depth", "count"),
    ("core.flags.stalled_iterations", "count"),
    ("core.hash_collisions", "count"),
    ("netsim.rounds", "count"),
    ("netsim.cc_bits", "bit"),
    ("netsim.corruptions", "count"),
    ("netsim.fault.masked_symbols", "count"),
    ("serve.submit_ns", "ns"),
    ("serve.queue_ns_p50", "ns"),
    ("serve.queue_ns_p99", "ns"),
    ("serve.exec_ns_p50", "ns"),
    ("serve.exec_ns_p99", "ns"),
    ("serve.handoff_ns_p99", "ns"),
    ("serve.queue_depth_highwater", "count"),
    ("serve.cache_hit_ratio", "share"),
    ("gen.late_ms_p99", "ms"),
    ("core.run.serial_ns", "ns"),
    ("core.sketch.push_ns_per_chunk", "ns"),
    ("core.sketch.sketch_at_ns", "ns"),
    ("core.mp.transcript_hash_ns", "ns"),
    ("core.mp.hk_hash_ns", "ns"),
    ("netsim.wire.step_rounds_ns", "ns"),
    ("core.sketch.push.predicted_share", "share"),
    ("core.sketch.sketch_at.predicted_share", "share"),
    ("core.mp.transcript_hash.predicted_share", "share"),
    ("netsim.wire.step_rounds.predicted_share", "share"),
    ("core.sketch.predicted_share", "share"),
    ("core.prep.predicted_share", "share"),
    ("core.sketch.ring4_predicted_share", "share"),
];

/// Every workload the command runs. `BENCHMARK.json` lists the first two;
/// `served_mix` is run by hand (see README.md, "Why `served_mix` is not
/// in BENCHMARK.json").
pub const WORKLOADS: &[&str] = &["large_clean", "noisy_sweep", "served_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("one of large_clean, noisy_sweep, served_mix")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Prints the notes, the metric table and the final JSON line; returns
/// whether every check passed.
fn emit(args: &Args, mut rep: Report) -> bool {
    rep.set(
        "ops.failed_frac",
        rep.failed as f64 / rep.attempted.max(1) as f64,
    );
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    let mut absent = Vec::new();
    for &(name, unit) in list {
        let value = match rep.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                rep.fail(format!("metric {name} is {v}"));
                0.0
            }
            None if args.trace => {
                absent.push(name);
                0.0
            }
            None => panic!("end-to-end metric {name} was not measured"),
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for n in &rep.notes {
        println!("# {n}");
    }
    for p in &rep.problems {
        println!("# FAILED: {p}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = rep.metrics.get(name) {
            println!(
                "# {:<42} {v:>16.6} {unit}",
                format!("{}.{name}", args.workload)
            );
        }
    }
    if !absent.is_empty() {
        println!(
            "# not on this workload's path (reported as 0): {}",
            absent.join(", ")
        );
    }
    let correct = rep.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        fields.join(", ")
    );
    correct
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mpicbench: {e}");
            std::process::exit(2);
        }
    };
    let rep = match args.workload.as_str() {
        "large_clean" => large_clean::run(args.seed, args.seconds, args.trace),
        "noisy_sweep" => noisy_sweep::run(args.seed, args.seconds, args.trace),
        _ => served_mix::run(args.seed, args.seconds, args.trace),
    };
    if !emit(&args, rep) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `field` of every entry of the array `key` of a JSON object.
    fn column(v: &serde_json::Value, key: &str, field: &str) -> Vec<String> {
        use serde_json::Value;
        match v.get(key) {
            Some(Value::Array(items)) => items
                .iter()
                .map(|m| match m.get(field) {
                    Some(Value::String(s)) => s.clone(),
                    other => panic!("{key}.{field} is {other:?}"),
                })
                .collect(),
            other => panic!("{key} is {other:?}"),
        }
    }

    /// The metric and workload lists here and in `BENCHMARK.json` agree.
    #[test]
    fn lists_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let v: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        for (key, own) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = own.iter().map(|m| m.0).collect();
            let units: Vec<&str> = own.iter().map(|m| m.1).collect();
            assert_eq!(column(&v, key, "name"), names, "{key} names");
            assert_eq!(column(&v, key, "unit"), units, "{key} units");
        }
        for w in column(&v, "workloads", "name") {
            assert!(WORKLOADS.contains(&w.as_str()), "{w} is not a workload");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let ok = parse_args(&a("--workload served_mix --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 2.0, true));
        for bad in [
            "--workload nope",
            "--workload large_clean --seed -1",
            "--workload large_clean --seconds 0",
            "--workload large_clean --trace 2",
            "--workload large_clean --bogus 1",
            "--seed 1",
            "--workload",
        ] {
            assert!(parse_args(&a(bad)).is_err(), "{bad} accepted");
        }
    }
}
