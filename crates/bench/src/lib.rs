#![warn(missing_docs)]
//! # chf-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§7):
//!
//! * [`table1`] — cycle-count improvement of the four phase orderings over
//!   basic blocks on the 24 microbenchmarks, with `m/t/u/p` statistics;
//! * [`table2`] — the VLIW, convergent-VLIW, depth-first and breadth-first
//!   heuristics on the same suite;
//! * [`table3`] — block-count improvement on the 19 SPEC-like composites
//!   (functional simulation);
//! * [`fig7`] — the cycle-count-reduction vs block-count-reduction
//!   correlation with its least-squares r²;
//! * [`whole_program`] — end-to-end cycle simulation of the composites
//!   (what §7.3 called "prohibitively slow"), with a measured-vs-model
//!   comparison against the block-count proxy.
//!
//! Every table is the same grid: one [`Row`] per workload holding a
//! basic-block baseline and one [`Column`] per configuration, each cell
//! produced by [`measure`] and the whole table fanned out by [`run`]. The
//! table modules supply only their configurations and cell formatting;
//! [`render::render_rows`] and [`csv::write_rows`] own the layout rules
//! shared by every table.
//!
//! Binaries `table1`/`table2`/`table3`/`fig7`/`whole_program`/`summary`
//! print the tables. Speed is measured and gated by the separate
//! `perfbench` package (`scripts/verify.sh perf`), not by this crate.

pub mod csv;
pub mod fig7;
pub mod render;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod whole_program;

// The parallel evaluation harness moved to `chf-service` (the service's
// worker-count handling shares `clamp_jobs`, and the dependency must point
// bench → service so the chaos binary can drive a live service). Re-exported
// here so harness code and docs keep their historical `chf_bench::parallel`
// path.
pub use chf_service::parallel;

/// Write a gate binary's one-line JSON summary to `target/gate/<name>`,
/// relative to the working directory, for CI failure artifacts. The build
/// directory is ignored by git, so a gate run never rewrites a tracked
/// file. A failed write only warns: the same line is also on stdout.
pub fn write_summary(name: &str, json: &str) {
    let dir = std::path::Path::new("target/gate");
    let path = dir.join(name);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, format!("{json}\n"))) {
        Ok(()) => println!("  summary: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

use chf_core::pipeline::{try_compile, CompileConfig, PhaseOrdering};
use chf_core::FormationStats;
use chf_sim::functional::{run_lowered, RunConfig};
use chf_sim::timing::{simulate_timing_lowered, TimingConfig};
use chf_sim::LoweredProgram;
use chf_workloads::Workload;

/// Which simulators [`measure`] runs on the compiled code.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Sim {
    /// The cycle-level timing simulator (Tables 1 and 2).
    Timing,
    /// The functional simulator: dynamic block counts only (Table 3).
    Functional,
    /// Both, over one lowered program, with their behaviour digests
    /// cross-checked (whole-program simulation).
    Both,
}

/// One compile-and-simulate measurement of a workload.
#[derive(Clone, Debug, Default)]
pub struct Measure {
    /// Timing-simulator cycles (`0` under [`Sim::Functional`]).
    pub cycles: u64,
    /// Dynamic block executions (the functional simulator's count when it
    /// ran).
    pub blocks: u64,
    /// Instructions executed under the timing simulator (`0` under
    /// [`Sim::Functional`]).
    pub insts: u64,
    /// Next-block misprediction rate (`0` under [`Sim::Functional`]).
    pub mispredict_rate: f64,
    /// Static formation counts of the compiled code.
    pub stats: FormationStats,
}

/// Compile `w` under `config`, run the `sim` simulators and check that
/// observable behaviour is preserved. Every failure mode — compilation
/// error, simulation error, or a behaviour change — is reported as `Err`
/// with a message naming the workload; nothing on this path panics, so the
/// parallel harness can degrade a bad workload to a marked table row.
///
/// # Errors
/// A descriptive message when compilation fails, simulation fails, the
/// compiled code's return value differs from `w.expected`, or (under
/// [`Sim::Both`]) the two simulators' digests disagree.
pub fn measure(w: &Workload, config: &CompileConfig, sim: Sim) -> Result<Measure, String> {
    let compiled = try_compile(&w.function, &w.profile, config)
        .map_err(|e| format!("{}: compilation failed: {e}", w.name))?;
    let lowered = LoweredProgram::lower(&compiled.function);
    let run_cfg = RunConfig {
        collect_trip_counts: false,
        ..RunConfig::default()
    };
    let func = (sim != Sim::Timing)
        .then(|| run_lowered(&lowered, &w.args, &w.memory, &run_cfg))
        .transpose()
        .map_err(|e| format!("{}: functional simulation failed: {e}", w.name))?;
    let timing = (sim != Sim::Functional)
        .then(|| simulate_timing_lowered(&lowered, &w.args, &w.memory, &TimingConfig::trips()))
        .transpose()
        .map_err(|e| format!("{}: timing simulation failed: {e}", w.name))?;
    match (&func, &timing) {
        (Some(f), Some(t)) if t.ret != Some(w.expected) || f.digest() != t.digest() => {
            return Err(format!(
                "{}: simulators disagree (functional {:?}, timing {:?}, expected {})",
                w.name, f.ret, t.ret, w.expected
            ));
        }
        (Some(f), None) => check_ret(w, f.ret)?,
        (None, Some(t)) => check_ret(w, t.ret)?,
        _ => {}
    }
    Ok(Measure {
        cycles: timing.as_ref().map_or(0, |t| t.cycles),
        blocks: match (&func, &timing) {
            (Some(f), _) => f.blocks_executed,
            (None, t) => t.as_ref().map_or(0, |t| t.blocks_executed),
        },
        insts: timing.as_ref().map_or(0, |t| t.insts_executed),
        mispredict_rate: timing.as_ref().map_or(0.0, |t| t.misprediction_rate()),
        stats: compiled.stats,
    })
}

/// `Ok` when `ret` is the workload's expected return value.
fn check_ret(w: &Workload, ret: Option<i64>) -> Result<(), String> {
    if ret == Some(w.expected) {
        Ok(())
    } else {
        Err(format!(
            "{}: compiled code returned {ret:?}, expected {}",
            w.name, w.expected
        ))
    }
}

/// One configuration's cell of a [`Row`].
#[derive(Clone, Debug)]
pub struct Column {
    /// Configuration label (`UPIO`, `HF`, …; for the budget ablation's
    /// portfolio column, the winning entrant such as `HF@16`).
    pub label: String,
    /// The configuration's measurement.
    pub measure: Measure,
    /// Percent improvement over the row's baseline: in cycles when the
    /// timing simulator ran, in dynamic blocks otherwise.
    pub improvement: f64,
}

/// One workload's line of an evaluation table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// The basic-block baseline every column is compared against.
    pub baseline: Measure,
    /// One cell per configuration, in the table's column order.
    pub columns: Vec<Column>,
    /// Why this workload produced no numbers: a compile/simulate failure
    /// (or a panic contained by the parallel harness). A poisoned row is
    /// rendered as a `FAILED:` row and written to CSV with the
    /// [`csv::POISONED_SENTINEL`], and it is excluded from averages and
    /// figure fits — it never silently zeroes the statistics.
    pub error: Option<String>,
}

impl Row {
    /// A row marking a workload that failed to produce measurements.
    pub fn poisoned(name: &str, error: String) -> Self {
        Row {
            name: name.to_string(),
            baseline: Measure::default(),
            columns: Vec::new(),
            error: Some(error),
        }
    }
}

/// Measure `w` under basic blocks (the baseline) and under each labelled
/// configuration. Any failure fails the whole row: partial rows would skew
/// the averages invisibly.
///
/// # Errors
/// The first [`measure`] error.
pub fn measure_row(
    w: &Workload,
    sim: Sim,
    configs: &[(&str, CompileConfig)],
) -> Result<Row, String> {
    let bb = CompileConfig::with_ordering(PhaseOrdering::BasicBlocks);
    let baseline = measure(w, &bb, sim)?;
    let score = |m: &Measure| match sim {
        Sim::Functional => m.blocks,
        Sim::Timing | Sim::Both => m.cycles,
    };
    let mut columns = Vec::with_capacity(configs.len());
    for (label, config) in configs {
        let m = measure(w, config, sim)?;
        columns.push(Column {
            label: (*label).to_string(),
            improvement: percent_improvement(score(&baseline), score(&m)),
            measure: m,
        });
    }
    Ok(Row {
        name: w.name.clone(),
        baseline,
        columns,
        error: None,
    })
}

/// Measure every workload of `suite` with `measure_row`, fanned across
/// `workers` threads of the [`parallel`] harness (`1` forces the sequential
/// path). Rows come back in suite order whatever the worker count.
///
/// Jobs run under the harness's panic isolation: a workload whose
/// measurement fails, or panics twice (one retry), degrades to a
/// [`Row::poisoned`] row rather than killing the table.
pub fn run<F>(suite: &[Workload], workers: usize, measure_row: F) -> Vec<Row>
where
    F: Fn(&Workload) -> Result<Row, String> + Sync,
{
    parallel::par_map_isolated(suite, workers, measure_row)
        .into_iter()
        .zip(suite)
        .map(|(res, w)| {
            res.and_then(|row| row)
                .unwrap_or_else(|e| Row::poisoned(&w.name, e))
        })
        .collect()
}

/// Percent improvement of `new` over `base` (positive = faster/fewer).
pub fn percent_improvement(base: u64, new: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (base as f64 - new as f64) / base as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_improvement_signs() {
        assert_eq!(percent_improvement(100, 80), 20.0);
        assert_eq!(percent_improvement(100, 120), -20.0);
        assert_eq!(percent_improvement(0, 5), 0.0);
    }

    #[test]
    fn measure_validates_behaviour_under_every_simulator() {
        let w = chf_workloads::micro::sieve();
        let config = CompileConfig::convergent();
        let t = measure(&w, &config, Sim::Timing).unwrap();
        let f = measure(&w, &config, Sim::Functional).unwrap();
        let b = measure(&w, &config, Sim::Both).unwrap();
        assert!(t.cycles > 0 && t.stats.merges > 0);
        assert!(f.blocks > 0 && f.cycles == 0);
        assert_eq!((b.cycles, b.blocks), (t.cycles, f.blocks));
    }

    /// The acceptance scenario: a deliberately broken workload (wrong
    /// expected return value) degrades to a marked row — it shows up as
    /// `FAILED` in the rendered table, as a `POISONED` sentinel in the CSV,
    /// and contributes no Figure 7 points — while healthy rows around it
    /// keep their numbers. Checked on both simulator paths.
    #[test]
    fn poisoned_workload_yields_marked_row() {
        let healthy = chf_workloads::micro::vadd();
        let mut bad = chf_workloads::micro::vadd();
        bad.name = "vadd_sabotaged".into();
        bad.expected += 1; // behaviour check must fail
        let configs = table1::configurations();
        for sim in [Sim::Timing, Sim::Functional] {
            let suite = [healthy.clone(), bad.clone()];
            let rows = run(&suite, 1, |w| measure_row(w, sim, &configs));

            assert!(rows[0].error.is_none(), "{sim:?}");
            let err = rows[1].error.as_ref().expect("sabotaged row is poisoned");
            assert!(
                err.contains("vadd_sabotaged"),
                "{sim:?}: error names the workload: {err}"
            );

            let text = table1::render(&rows);
            assert!(
                text.contains("FAILED"),
                "table marks the poisoned row:\n{text}"
            );
            assert!(
                text.contains("Average"),
                "healthy rows still average:\n{text}"
            );

            let csv = table1::csv(&rows);
            let poisoned_line = csv
                .lines()
                .find(|l| l.starts_with("vadd_sabotaged"))
                .expect("poisoned row present in CSV");
            assert!(
                poisoned_line.contains(csv::POISONED_SENTINEL),
                "CSV uses the sentinel: {poisoned_line}"
            );

            // Figure 7 must draw its regression from the healthy row only.
            let pts = fig7::points(&rows);
            assert_eq!(pts.len(), rows[0].columns.len());
        }
    }
}
