//! The `compile` workload: one thread compiling in a closed loop.
//!
//! A pass compiles the 43 paper functions under all five orderings and one
//! slice of generated programs (see [`crate::suite::TAIL`]) under (IUPO).
//! Pass `k` takes slice `k` of the seeded pool, so a run samples many
//! generated programs while every pass has the same size mix. Only the
//! compiles are timed; each pass's artifacts are then checked under both
//! simulators, untimed.
//!
//! Traced, every slice is compiled twice: once through `try_compile`
//! (untimed for the per-layer numbers, and the reference) and once through
//! the phase mirror, whose artifacts must match byte for byte.

use crate::calibrate::Calibration;
use crate::metrics::{median, quantile, ratio, Report, Values};
use crate::mirror::{self, ORDERINGS};
use crate::suite::{self, Code, Program};
use crate::trace::{medians, Tracer};
use crate::{fingerprint, finish, setups, Fingerprint};
use chf_core::{try_compile, ChfError, CompileConfig, Compiled, PhaseOrdering};
use std::time::{Duration, Instant};

/// Slices of generated programs made at set-up; a run that compiles more
/// passes than this starts over from the first slice.
const POOL_SLICES: usize = 48;

struct Inputs {
    paper: Vec<Program>,
    slices: Vec<Vec<Program>>,
}

fn setup(seed: u64, v: &mut Values) -> Inputs {
    let clock = Instant::now();
    let paper = suite::paper();
    v.insert("setup.workloads_ms", clock.elapsed().as_secs_f64() * 1e3);
    let clock = Instant::now();
    let slices = suite::generated(seed, POOL_SLICES, &suite::TAIL);
    v.insert("setup.testgen_ms", clock.elapsed().as_secs_f64() * 1e3);
    Inputs { paper, slices }
}

/// One pass's compile jobs: the paper matrix, then the slice under (IUPO).
fn jobs(inputs: &Inputs, slice: usize) -> Vec<(&Program, CompileConfig, &'static str)> {
    let mut jobs = Vec::new();
    for p in &inputs.paper {
        for (ordering, span) in ORDERINGS {
            jobs.push((p, CompileConfig::with_ordering(ordering), span));
        }
    }
    let conv = ORDERINGS[4];
    debug_assert_eq!(conv.0, PhaseOrdering::Iupo_);
    for p in &inputs.slices[slice % inputs.slices.len()] {
        jobs.push((p, CompileConfig::with_ordering(conv.0), conv.1));
    }
    jobs
}

/// Add a traced pass's formation time per trial, with the trials taken
/// from the pass's fingerprint `fp`.
pub fn us_per_trial(t: &mut Tracer, fp: &Fingerprint) {
    let trials = fp.get("formation_trials").copied().unwrap_or(0) as f64;
    let us = ratio(t.get("core.formation_ms") * 1e3, trials);
    t.add("core.us_per_trial", us);
}

/// Run the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut cal = Calibration::new(1);
    let (inputs, mut values) = setups(&mut cal, |v| setup(seed, v));
    let mut report = Report::default();
    let mut tracer = Tracer::new(trace);
    let mut pass_ms = Vec::new();
    let mut samples = Vec::new();
    let mut traced = Vec::new();
    let mut overhead = Vec::new();
    let mut first: Option<(Code, Fingerprint)> = None;

    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let mut k = 0;
    while k == 0 || start.elapsed() < window {
        let jobs = jobs(&inputs, k);
        cal.sample();
        let mut total = 0.0;
        let mut artifacts: Vec<Result<Compiled, ChfError>> = Vec::with_capacity(jobs.len());
        for (p, config, _) in &jobs {
            let clock = Instant::now();
            let out = try_compile(&p.function, &p.profile, config);
            let ms = clock.elapsed().as_secs_f64() * 1e3;
            total += ms;
            samples.push(ms);
            artifacts.push(out);
        }
        pass_ms.push(total);

        let mut fp = Fingerprint::new();
        if trace {
            cal.sample();
            let mut traced_total = 0.0;
            for ((p, config, span), want) in jobs.iter().zip(&artifacts) {
                let clock = Instant::now();
                let got = mirror::compile(&p.function, &p.profile, config, &mut tracer);
                let ms = clock.elapsed().as_secs_f64() * 1e3;
                tracer.add(span, ms);
                traced_total += ms;
                match (want, &got) {
                    (Ok(want), Ok(got)) if mirror::same_artifact(want, got) => {
                        fingerprint::add_compiled(&mut fp, got)
                    }
                    (Err(_), Err(_)) => {}
                    _ => {
                        eprintln!(
                            "compile mirror differs from try_compile on {} under {}",
                            p.name,
                            config.ordering.label()
                        );
                        std::process::exit(2);
                    }
                }
            }
            overhead.push(traced_total - total);
            us_per_trial(&mut tracer, &fp);
        } else {
            for c in artifacts.iter().flatten() {
                fingerprint::add_compiled(&mut fp, c);
            }
        }

        let mut code = Code::default();
        for ((p, config, _), out) in jobs.iter().zip(&artifacts) {
            let ok = match out {
                Ok(c) => suite::check(p, &c.function, &mut tracer, &mut code),
                Err(e) => {
                    eprintln!("{} under {}: {e}", p.name, config.ordering.label());
                    false
                }
            };
            report.tally(ok);
        }
        if trace {
            suite::sim_rates(&mut tracer);
            traced.push(tracer.end_pass());
        }
        if first.is_none() {
            first = Some((code, fp));
        }
        k += 1;
    }

    let (code, mut fp) = first.expect("at least one pass");
    fingerprint::add_code(&mut fp, &code);
    let per_pass = jobs(&inputs, 0).len() as f64;
    values.extend([
        ("ops_per_s", per_pass / (median(&pass_ms) / 1e3)),
        ("op_p50_ms", median(&samples)),
        ("op_p99_ms", quantile(&samples, 0.99)),
        ("code_cycles", code.cycles as f64),
        ("code_dyn_blocks", code.dyn_blocks as f64),
    ]);
    if trace {
        values.extend(medians(&traced));
        values.extend(fingerprint::layer_counts(&fp));
        values.insert("trace.overhead_ms", median(&overhead));
    }
    report.values = values;
    report.fingerprint = fp;
    finish(report, &cal, &pass_ms, samples.len())
}
