//! The `simulate` workload: one thread simulating in a closed loop.
//!
//! Set-up compiles the `compile` workload's first pass once: the 43 paper
//! functions under all five orderings and the first slice of generated
//! programs under (IUPO). A pass then simulates every artifact on its
//! reference inputs with the timing simulator (lowering plus the event
//! core) and the functional simulator. The simulator does all of the timed
//! work; compile cost shows only in `setup_s`.

use crate::calibrate::Calibration;
use crate::compile::us_per_trial;
use crate::metrics::{median, quantile, Report, Values};
use crate::mirror::{self, ORDERINGS};
use crate::suite::{self, Code, Program};
use crate::trace::{medians, Tracer};
use crate::{fingerprint, finish, setups, Fingerprint};
use chf_core::{try_compile, CompileConfig, Compiled};
use chf_ir::function::Function;
use std::time::{Duration, Instant};

/// Rounds over the artifacts per pass: about 200 ms of simulation, long
/// against the calibration kernel that runs before each pass.
const ROUNDS: usize = 4;

struct Inputs {
    programs: Vec<Program>,
    /// `(program index, ordering index)` of each job, in compile order.
    jobs: Vec<(usize, usize)>,
    /// The artifact of each job that compiled.
    artifacts: Vec<(usize, Function)>,
}

/// Build the inputs and compile them; also returns the compiles and the
/// number that failed.
fn setup(seed: u64, v: &mut Values) -> (Inputs, Vec<Compiled>, usize) {
    let clock = Instant::now();
    let mut programs = suite::paper();
    v.insert("setup.workloads_ms", clock.elapsed().as_secs_f64() * 1e3);
    let clock = Instant::now();
    let paper = programs.len();
    programs.extend(suite::generated(seed, 1, &suite::TAIL).remove(0));
    v.insert("setup.testgen_ms", clock.elapsed().as_secs_f64() * 1e3);

    let clock = Instant::now();
    let mut jobs = Vec::new();
    for i in 0..programs.len() {
        if i < paper {
            jobs.extend((0..ORDERINGS.len()).map(|o| (i, o)));
        } else {
            jobs.push((i, ORDERINGS.len() - 1));
        }
    }
    let mut artifacts = Vec::new();
    let mut compiled = Vec::new();
    let mut failed = 0;
    for (j, &(i, o)) in jobs.iter().enumerate() {
        let p = &programs[i];
        match try_compile(
            &p.function,
            &p.profile,
            &CompileConfig::with_ordering(ORDERINGS[o].0),
        ) {
            Ok(c) => {
                artifacts.push((j, c.function.clone()));
                compiled.push(c);
            }
            Err(e) => {
                eprintln!("{}: {e}", p.name);
                failed += 1;
            }
        }
    }
    v.insert("setup.precompile_ms", clock.elapsed().as_secs_f64() * 1e3);
    (
        Inputs {
            programs,
            jobs,
            artifacts,
        },
        compiled,
        failed,
    )
}

/// Run the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut cal = Calibration::new(1);
    let ((inputs, compiled, failed), mut values) = setups(&mut cal, |v| setup(seed, v));
    let mut report = Report::default();
    for _ in 0..failed {
        report.tally(false);
    }
    let mut fp = Fingerprint::new();
    for c in &compiled {
        fingerprint::add_compiled(&mut fp, c);
    }
    if trace {
        // The precompile once more through the phase mirror: the core,
        // opt and ir layers of this workload, all in set-up.
        let mut t = Tracer::new(true);
        cal.sample();
        for ((j, _), want) in inputs.artifacts.iter().zip(&compiled) {
            let (i, o) = inputs.jobs[*j];
            let p = &inputs.programs[i];
            let (ordering, span) = ORDERINGS[o];
            let config = CompileConfig::with_ordering(ordering);
            let clock = Instant::now();
            let got = mirror::compile(&p.function, &p.profile, &config, &mut t);
            t.add(span, clock.elapsed().as_secs_f64() * 1e3);
            match got {
                Ok(got) if mirror::same_artifact(want, &got) => {}
                _ => {
                    eprintln!("compile mirror differs from try_compile on {}", p.name);
                    std::process::exit(2);
                }
            }
        }
        us_per_trial(&mut t, &fp);
        values.extend(t.end_pass());
    }
    drop(compiled);

    let mut tracer = Tracer::new(trace);
    let mut off = Tracer::new(false);
    let mut pass_ms = Vec::new();
    let mut samples = Vec::new();
    let mut traced = Vec::new();
    let mut overhead = Vec::new();
    let mut first: Option<Code> = None;

    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let mut passes = 0;
    while passes == 0 || start.elapsed() < window {
        cal.sample();
        let times = pass(&inputs, &mut off, &mut report, &mut first);
        let untraced: f64 = times.iter().sum();
        samples.extend(times);
        pass_ms.push(untraced);
        if trace {
            cal.sample();
            let times = pass(&inputs, &mut tracer, &mut report, &mut first);
            overhead.push(times.iter().sum::<f64>() - untraced);
            suite::sim_rates(&mut tracer);
            traced.push(tracer.end_pass());
        }
        passes += 1;
    }

    let code = first.expect("at least one pass");
    fingerprint::add_code(&mut fp, &code);
    values.extend([
        (
            "ops_per_s",
            (ROUNDS * inputs.artifacts.len()) as f64 / (median(&pass_ms) / 1e3),
        ),
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

/// Simulate every artifact [`ROUNDS`] times, timing each call and checking
/// it against its reference after the clock stops. Returns each call's time
/// in ms. The first round's [`Code`] is kept in `first`; a later round that
/// differs from it counts as a failure.
fn pass(
    inputs: &Inputs,
    t: &mut Tracer,
    report: &mut Report,
    first: &mut Option<Code>,
) -> Vec<f64> {
    let mut times = Vec::with_capacity(ROUNDS * inputs.artifacts.len());
    for _ in 0..ROUNDS {
        let mut code = Code::default();
        for (j, f) in &inputs.artifacts {
            let p = &inputs.programs[inputs.jobs[*j].0];
            let clock = Instant::now();
            let sim = suite::simulate(p, f, t);
            times.push(clock.elapsed().as_secs_f64() * 1e3);
            report.tally(suite::record(p, sim, &mut code));
        }
        match first {
            None => *first = Some(code),
            Some(c) => report.tally(*c == code),
        }
    }
    times
}
