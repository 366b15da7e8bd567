//! Shared pieces of the three workloads: the trial spec, the per-row
//! correctness rules, row digests, quantiles, peak memory, and the
//! report every run prints.

use bench::{AttackSpec, FaultSpec, Scheme, TrialResult, WorkloadSpec};
use std::collections::BTreeMap;
use std::time::Duration;

/// One trial's inputs apart from its seed.
#[derive(Clone, Debug)]
pub struct Spec {
    pub workload: WorkloadSpec,
    pub scheme: Scheme,
    pub attack: AttackSpec,
    pub fault: FaultSpec,
}

impl Spec {
    pub fn new(workload: WorkloadSpec, scheme: Scheme, attack: AttackSpec) -> Spec {
        Spec {
            workload,
            scheme,
            attack,
            fault: FaultSpec::None,
        }
    }

    /// True when neither an adversary nor a fault schedule touches the run.
    pub fn noiseless(&self) -> bool {
        matches!(self.attack, AttackSpec::None) && matches!(self.fault, FaultSpec::None)
    }
}

/// The row-level correctness rules every workload applies to every trial:
/// the verdict is explicit (`success` exactly when the verdict code is
/// `DecodedCorrect`), and a run nothing disturbed must decode.
pub fn row_problem(spec: &Spec, row: &TrialResult) -> Option<String> {
    if row.success != (row.degraded == 0) {
        return Some(format!(
            "success={} but verdict code {}",
            row.success, row.degraded
        ));
    }
    if spec.noiseless() && row.degraded != 0 {
        return Some(format!(
            "noiseless trial ended with verdict {}",
            row.degraded
        ));
    }
    None
}

/// FNV-1a over the JSON serialization of `rows`: a digest of every
/// timing-free field of a trial population.
pub fn digest(rows: &[TrialResult]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        let s = serde_json::to_string(row).expect("a trial row serializes");
        for b in s.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The digests pinned for `(workload, seed)` pairs, one
/// `workload seed digest` triple per line.
const PINNED: &str = include_str!("../digests.txt");

/// The pinned digest of `(workload, seed)`, if one is recorded.
pub fn pinned_digest(workload: &str, seed: u64) -> Option<&'static str> {
    PINNED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(d)) if w == workload && s.parse() == Ok(seed) => Some(d),
            _ => None,
        }
    })
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Quantile `q` of `xs` by linear interpolation between order statistics
/// (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
///
/// Workloads read it once their seed's fixed population has run, not at
/// the end: a pooled `RunScratch` keeps growing with every trial it
/// serves, so a reading at the end of a timed phase would rise with
/// speed.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run found: operation counts, failures, metric values and
/// human-readable notes.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one failed operation (or failed population-level check).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Checks one trial row against the row rules.
    pub fn check_row(&mut self, spec: &Spec, row: &TrialResult, ctx: &str) {
        if let Some(p) = row_problem(spec, row) {
            self.fail(format!("{ctx}: {p}"));
        }
    }

    /// Checks a population digest against the pinned one and records the
    /// outcome statistics that must repeat exactly.
    pub fn check_population(&mut self, workload: &str, seed: u64, rows: &[TrialResult]) {
        let d = digest(rows);
        self.note(format!("digest {workload} {seed} {d}"));
        match pinned_digest(workload, seed) {
            Some(p) if p != d => self.fail(format!(
                "population digest {d} differs from the pinned {p} for seed {seed}"
            )),
            Some(_) => self.note("digest matches the pinned value".into()),
            None => self.note(format!("no digest pinned for seed {seed}")),
        }
        let n = rows.len().max(1) as f64;
        let decoded = rows.iter().filter(|r| r.degraded == 0).count() as f64 / n;
        let blowup = rows.iter().map(|r| r.blowup).sum::<f64>() / n;
        self.set("outcome.decoded_frac", decoded);
        self.set("outcome.blowup_mean", blowup);
    }
}
