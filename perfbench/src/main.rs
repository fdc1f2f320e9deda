//! `chf-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile|simulate|service --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for `S` seconds on inputs drawn from seed `N`, checks
//! every compiled artifact against a reference taken from the uncompiled
//! program, prints each metric as `name value unit`, and ends standard
//! output with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones (see `metrics.rs` and README.md). Exits 1 when any
//! operation failed or any output did not match, 2 on a usage error or
//! when the traced compile mirror disagrees with `try_compile`.

mod calibrate;
mod compile;
mod metrics;
mod mirror;
mod service;
mod simulate;
mod suite;
mod trace;

use calibrate::Calibration;
use metrics::{median, peak_rss_mb, Report, Values};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up runs this many times per run; `setup_s` and the `setup.*` layers
/// report the median, and the last set-up's inputs are used.
const SETUP_REPS: usize = 5;

/// Run `setup` [`SETUP_REPS`] times, each after a calibration sample.
/// Returns the last result together with `setup_s` and the median of each
/// value `setup` recorded.
pub fn setups<S>(cal: &mut Calibration, mut setup: impl FnMut(&mut Values) -> S) -> (S, Values) {
    let mut runs = Vec::new();
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        cal.sample();
        let mut v = Values::new();
        let clock = Instant::now();
        let s = setup(&mut v);
        secs.push(clock.elapsed().as_secs_f64());
        runs.push(v);
        last = Some(s);
    }
    let mut values = trace::medians(&runs);
    values.insert("setup_s", median(&secs));
    (last.expect("SETUP_REPS > 0"), values)
}

/// Scale the run's times to the reference speed, record peak memory, and
/// log the passes and the speed factor on stderr.
pub fn finish(mut report: Report, cal: &Calibration, pass_ms: &[f64], samples: usize) -> Report {
    let factor = cal.factor();
    calibrate::scale(&mut report.values, factor);
    match peak_rss_mb() {
        Ok(mb) => {
            report.values.insert("peak_rss_mb", mb);
        }
        Err(e) => {
            eprintln!("{e}");
            report.tally(false);
        }
    }
    let passes: Vec<String> = pass_ms.iter().map(|ms| format!("{ms:.0}")).collect();
    eprintln!(
        "{} timed passes, unscaled median {:.1} ms; {samples} timed operations; speed factor {factor:.3}; unscaled pass ms: {}",
        pass_ms.len(),
        median(pass_ms),
        passes.join(" ")
    );
    report
}

/// Deterministic results of a run, printed on their own stdout line so two
/// runs, traced or not, can be compared: the formation counts, static size,
/// and simulated output of the workload's first pass.
pub type Fingerprint = BTreeMap<&'static str, u64>;

/// Building and printing [`Fingerprint`]s.
pub mod fingerprint {
    use super::Fingerprint;
    use crate::suite::Code;

    /// Add the formation counts and static size of `c` to `fp`.
    pub fn add_compiled(fp: &mut Fingerprint, c: &chf_core::Compiled) {
        *fp.entry("formation_trials").or_default() += c.stats.trials as u64;
        *fp.entry("formation_merges").or_default() += c.stats.merges as u64;
        *fp.entry("formation_skipped").or_default() += c.stats.skipped as u64;
        *fp.entry("static_insts").or_default() += c.function.static_size() as u64;
    }

    /// Add the simulated output measures of `code`.
    pub fn add_code(fp: &mut Fingerprint, code: &Code) {
        fp.insert("code_cycles", code.cycles);
        fp.insert("code_dyn_blocks", code.dyn_blocks);
        for (name, v) in [
            "sim_blocks",
            "sim_insts_fetched",
            "sim_insts_executed",
            "sim_mispredictions",
        ]
        .into_iter()
        .zip(code.sim)
        {
            fp.insert(name, v);
        }
    }

    /// The per-layer counts of the first pass, named as in
    /// [`crate::metrics::PER_LAYER`]. These are exact, so traced runs report
    /// them from the first pass rather than as medians over a number of
    /// passes that depends on speed.
    pub fn layer_counts(fp: &Fingerprint) -> crate::metrics::Values {
        let get = |k: &str| fp.get(k).copied().unwrap_or(0) as f64;
        let ratio = crate::metrics::ratio;
        [
            ("core.formation_trials", get("formation_trials")),
            ("core.formation_merges", get("formation_merges")),
            ("core.formation_skipped", get("formation_skipped")),
            ("core.static_insts", get("static_insts")),
            (
                "core.merge_ratio",
                ratio(get("formation_merges"), get("formation_trials")),
            ),
            ("sim.blocks", get("sim_blocks")),
            ("sim.insts_fetched", get("sim_insts_fetched")),
            ("sim.insts_executed", get("sim_insts_executed")),
            ("sim.mispredictions", get("sim_mispredictions")),
            (
                "sim.exec_per_fetch",
                ratio(get("sim_insts_executed"), get("sim_insts_fetched")),
            ),
        ]
        .into_iter()
        .collect()
    }

    /// Print `fp` as one JSON line, with the workload and seed.
    pub fn print(workload: &str, seed: u64, fp: &Fingerprint) {
        let fields: Vec<String> = fp.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        println!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"deterministic\": {{{}}}}}",
            fields.join(", ")
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Defaults match `BENCHMARK.json`'s `run_seconds` and README.md's default
/// seed.
fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

/// A workload: run for `seconds` on inputs from `seed`, traced or not.
type Run = fn(seed: u64, seconds: f64, trace: bool) -> metrics::Report;

/// The workloads by name.
const WORKLOADS: [(&str, Run); 3] = [
    ("compile", compile::run),
    ("simulate", simulate::run),
    ("service", service::run),
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        eprintln!(
            "--workload must be compile, simulate or service, got {:?}",
            args.workload
        );
        std::process::exit(2);
    };
    let report = run(args.seed, args.seconds, args.trace);
    fingerprint::print(&args.workload, args.seed, &report.fingerprint);
    report.print(args.trace);
    if report.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::WORKLOADS;

    /// One pass of each workload, untraced, traced, and untraced again with
    /// the same seed: the exact results must agree and every output match.
    #[test]
    fn exact_results_repeat_and_ignore_tracing() {
        for (name, run) in WORKLOADS {
            let first = run(3, 1e-3, false);
            let traced = run(3, 1e-3, true);
            let again = run(3, 1e-3, false);
            for r in [&first, &traced, &again] {
                assert_eq!(r.failed, 0, "{name} failed operations");
            }
            assert!(first.fingerprint.get("code_cycles").is_some_and(|c| *c > 0));
            assert_eq!(
                first.fingerprint, traced.fingerprint,
                "{name}: tracing changed results"
            );
            assert_eq!(
                first.fingerprint, again.fingerprint,
                "{name}: same seed, other results"
            );
        }
    }
}
