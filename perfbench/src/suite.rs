//! Benchmark inputs, their references, and the output check.
//!
//! Inputs are the paper's two suites (24 microbenchmarks, 19 SPEC-like
//! composites) and programs drawn from `chf_ir::testgen` by the workload
//! seed. Every reference comes from the uncompiled basic-block form, never
//! from the compiler: the return value a paper workload is constructed to
//! produce (`Workload::expected`, checked by hand-written code), and for
//! every program the final memory of a functional run of the basic-block
//! form. A compiled artifact passes when both simulators reproduce the
//! reference exactly.

use crate::metrics::ratio;
use crate::trace::Tracer;
use chf_ir::function::Function;
use chf_ir::profile::ProfileData;
use chf_ir::testgen::{generate, GenConfig, SplitMix64};
use chf_sim::functional::{run, run_lowered, FuncResult, RunConfig};
use chf_sim::timing::{simulate_timing, simulate_timing_lowered, TimingConfig, TimingResult};
use chf_sim::LoweredProgram;
use std::time::Instant;

/// Observable behaviour: return value and sorted non-zero memory.
pub type Digest = (Option<i64>, Vec<(i64, i64)>);

/// One benchmark input in basic-block form.
pub struct Program {
    /// Workload or generated-function name.
    pub name: String,
    /// The uncompiled basic-block form.
    pub function: Function,
    /// Training profile from a run of the basic-block form.
    pub profile: ProfileData,
    /// Arguments of the reference (and training) run.
    pub args: Vec<i64>,
    /// Initial memory of the reference run.
    pub memory: Vec<(i64, i64)>,
    /// Behaviour every compiled artifact must reproduce.
    pub reference: Digest,
    /// One of the 19 SPEC-like composites.
    pub composite: bool,
}

/// The 24 microbenchmarks followed by the 19 SPEC-like composites.
///
/// # Panics
/// When a workload's basic-block form fails to run; workload construction
/// has already run it once and checked its return value.
pub fn paper() -> Vec<Program> {
    let micro = chf_workloads::microbenchmarks()
        .into_iter()
        .map(|w| (w, false));
    let composite = chf_workloads::spec_suite().into_iter().map(|w| (w, true));
    micro
        .chain(composite)
        .map(|(w, composite)| {
            let base = run(&w.function, &w.args, &w.memory, &RunConfig::default())
                .unwrap_or_else(|e| panic!("{}: basic-block form failed: {e}", w.name));
            Program {
                reference: (Some(w.expected), base.digest().1),
                name: w.name,
                function: w.function,
                profile: w.profile,
                args: w.args,
                memory: w.memory,
                composite,
            }
        })
        .collect()
}

/// Size strata of generated programs: `(min, max)` static instructions,
/// half-open, and how many programs of that size one slice holds.
///
/// Testgen's default grammar yields mostly small functions: in a 2,000-seed
/// sample 45% had under 50 instructions and 1.3% had 400 or more, and the
/// largest took 280 ms to compile under (IUPO) against a median of 0.9 ms.
/// Drawing a fixed number per size class keeps every slice's mix the same,
/// so a seed changes which programs are compiled but not how many large
/// ones.
pub type Strata = [(usize, usize, usize); 7];

/// Programs in one slice of `strata`.
pub const fn programs(strata: &Strata) -> usize {
    let mut n = 0;
    let mut i = 0;
    while i < strata.len() {
        n += strata[i].2;
        i += 1;
    }
    n
}

/// The `compile` and `simulate` mix, 32 programs. The top stratum is
/// weighted far above its natural share: it holds the large-function tail
/// that `op_p99_ms` follows, and with six per slice the 99th percentile of a
/// `compile` pass falls inside it rather than on the boundary of two strata,
/// where the seed moved it by 25%.
pub const TAIL: Strata = [
    (0, 50, 6),
    (50, 100, 4),
    (100, 150, 4),
    (150, 200, 4),
    (200, 300, 4),
    (300, 400, 4),
    (400, usize::MAX, 6),
];

/// The `service` mix of cache misses, 32 programs, all under 300
/// instructions (95% of testgen's natural output). The large-function tail
/// is the `compile` workload's subject; among the service's misses a few
/// 100-300 ms compiles would make each pass a wait on the two workers, and
/// which ones a seed drew moved `ops_per_s` by 25% between seeds.
pub const SMALL: Strata = [
    (0, 50, 10),
    (50, 100, 8),
    (100, 150, 6),
    (150, 200, 4),
    (200, 300, 4),
    (300, 400, 0),
    (400, usize::MAX, 0),
];

/// `n` slices of generated programs with the mix `strata`, drawn from
/// `seed`: the testgen seeds, and through them each program's two
/// arguments. Slice `i` is the same for every `n > i`.
///
/// # Panics
/// When a generated program fails to run in basic-block form.
pub fn generated(seed: u64, n: usize, strata: &Strata) -> Vec<Vec<Program>> {
    let mut rng = SplitMix64::new(seed);
    let mut drawn: Vec<Vec<(u64, Function)>> = strata.iter().map(|_| Vec::new()).collect();
    let mut missing: usize = strata.iter().map(|s| n * s.2).sum();
    while missing > 0 {
        let gen_seed = rng.next();
        let f = generate(gen_seed, &GenConfig::default());
        let size = f.static_size();
        let k = strata
            .iter()
            .position(|&(lo, hi, _)| (lo..hi).contains(&size))
            .expect("strata cover every size");
        if drawn[k].len() < n * strata[k].2 {
            drawn[k].push((gen_seed, f));
            missing -= 1;
        }
    }
    let mut drawn: Vec<_> = drawn.into_iter().map(Vec::into_iter).collect();
    (0..n)
        .map(|_| {
            let mut slice = Vec::new();
            for (k, &(_, _, per)) in strata.iter().enumerate() {
                for _ in 0..per {
                    let (gen_seed, function) = drawn[k].next().expect("stratum filled above");
                    let mut arg = SplitMix64::new(!gen_seed);
                    let args = vec![arg.below(64) as i64, arg.below(64) as i64];
                    let base =
                        run(&function, &args, &[], &RunConfig::default()).unwrap_or_else(|e| {
                            panic!("{}: basic-block form failed: {e}", function.name)
                        });
                    slice.push(Program {
                        name: function.name.clone(),
                        reference: base.digest(),
                        profile: base.profile,
                        function,
                        args,
                        memory: Vec::new(),
                        composite: false,
                    });
                }
            }
            slice
        })
        .collect()
}

/// Results of simulating one artifact with both simulators.
pub struct Sim {
    /// Timing simulator result.
    pub timing: TimingResult,
    /// Functional simulator result.
    pub func: FuncResult,
}

impl Sim {
    /// Whether both simulators reproduced `p`'s reference behaviour.
    pub fn matches(&self, p: &Program) -> bool {
        self.timing.digest() == p.reference && self.func.digest() == p.reference
    }
}

/// Simulate artifact `f` of `p` on its reference inputs with the timing
/// simulator and then the functional simulator, each call lowering the
/// function itself as `simulate_timing` and `run` do. Traced, the same work
/// runs through the lowered entry points so lowering, the event core and
/// the functional simulator get spans of their own.
pub fn simulate(p: &Program, f: &Function, t: &mut Tracer) -> Result<Sim, String> {
    let config = TimingConfig::default();
    let sim = if t.on() {
        let clock = Instant::now();
        let lowered = t.span("sim.lower_ms", || LoweredProgram::lower(f));
        let timing = t.span("sim.event_ms", || {
            simulate_timing_lowered(&lowered, &p.args, &p.memory, &config)
        });
        t.add("sim.timing_call_ms", clock.elapsed().as_secs_f64() * 1e3);
        let clock = Instant::now();
        let lowered = t.span("sim.lower_ms", || LoweredProgram::lower(f));
        let func = t.span("sim.functional_ms", || {
            run_lowered(&lowered, &p.args, &p.memory, &RunConfig::default())
        });
        t.add("sim.func_call_ms", clock.elapsed().as_secs_f64() * 1e3);
        Sim {
            timing: timing.map_err(|e| format!("{}: timing simulator: {e}", p.name))?,
            func: func.map_err(|e| format!("{}: functional simulator: {e}", p.name))?,
        }
    } else {
        Sim {
            timing: simulate_timing(f, &p.args, &p.memory, &config)
                .map_err(|e| format!("{}: timing simulator: {e}", p.name))?,
            func: run(f, &p.args, &p.memory, &RunConfig::default())
                .map_err(|e| format!("{}: functional simulator: {e}", p.name))?,
        }
    };
    t.add("sim.cycles", sim.timing.cycles as f64);
    t.add("sim.blocks", sim.timing.blocks_executed as f64);
    t.add("sim.func_insts", sim.func.insts_executed as f64);
    Ok(sim)
}

/// Simulator rates of one traced pass, from its span totals: host ns per
/// simulated block in the event core, and simulated Mcycles and functional
/// M instructions per host second, per call including lowering.
pub fn sim_rates(t: &mut Tracer) {
    let ns_per_block = ratio(t.get("sim.event_ms") * 1e6, t.get("sim.blocks"));
    let mcycles = ratio(t.get("sim.cycles"), t.get("sim.timing_call_ms") * 1e3);
    let minsts = ratio(t.get("sim.func_insts"), t.get("sim.func_call_ms") * 1e3);
    t.add("sim.ns_per_block", ns_per_block);
    t.add("sim.mcycles_per_s", mcycles);
    t.add("sim.func_minsts_per_s", minsts);
}

/// Check artifact `f` of `p` under both simulators, adding its cycles and
/// dynamic blocks to `code`. Returns whether it matched.
pub fn check(p: &Program, f: &Function, t: &mut Tracer, code: &mut Code) -> bool {
    record(p, simulate(p, f, t), code)
}

/// Judge one simulation of an artifact of `p`: on a match add it to `code`
/// and return true; report a mismatch or a simulator error on stderr.
pub fn record(p: &Program, sim: Result<Sim, String>, code: &mut Code) -> bool {
    match sim {
        Ok(sim) if sim.matches(p) => {
            code.add(&sim);
            true
        }
        Ok(_) => {
            eprintln!("output mismatch: {}", p.name);
            false
        }
        Err(e) => {
            eprintln!("{e}");
            false
        }
    }
}

/// Output quality of a set of artifacts: the paper's Table 1 and Table 3
/// measures, plus the modelled simulator statistics.
#[derive(Default, Clone, Debug, PartialEq, Eq)]
pub struct Code {
    /// Simulated cycles, summed.
    pub cycles: u64,
    /// Functional dynamic blocks, summed.
    pub dyn_blocks: u64,
    /// Timing-simulator blocks, instructions fetched and executed, and
    /// mispredictions, summed.
    pub sim: [u64; 4],
}

impl Code {
    /// Add one artifact's simulation.
    pub fn add(&mut self, s: &Sim) {
        self.cycles += s.timing.cycles;
        self.dyn_blocks += s.func.blocks_executed;
        let t = &s.timing;
        for (acc, v) in self.sim.iter_mut().zip([
            t.blocks_executed,
            t.insts_fetched,
            t.insts_executed,
            t.mispredictions,
        ]) {
            *acc += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_slices_follow_the_strata_and_repeat_per_seed() {
        let a = generated(7, 2, &TAIL);
        let b = generated(7, 2, &TAIL);
        assert_eq!(a.len(), 2);
        for (sa, sb) in a.iter().zip(&b) {
            assert_eq!(sa.len(), programs(&TAIL));
            let mut at = 0;
            for &(lo, hi, per) in &TAIL {
                for p in &sa[at..at + per] {
                    assert!((lo..hi).contains(&p.function.static_size()));
                }
                at += per;
            }
            for (pa, pb) in sa.iter().zip(sb) {
                assert_eq!(pa.function.to_string(), pb.function.to_string());
                assert_eq!((&pa.args, &pa.reference), (&pb.args, &pb.reference));
            }
        }
        let longer = generated(7, 3, &TAIL);
        for (pa, pb) in a[1].iter().zip(&longer[1]) {
            assert_eq!(pa.function.to_string(), pb.function.to_string());
            assert_eq!(pa.args, pb.args);
        }
        let other = generated(8, 1, &TAIL);
        assert_ne!(
            a[0][0].function.to_string(),
            other[0][0].function.to_string()
        );
    }
}
