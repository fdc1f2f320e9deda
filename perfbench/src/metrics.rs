//! Metric definitions, summary statistics and the result line.
//!
//! The two tables below are the benchmark's metric contract: every run with
//! tracing off reports exactly [`END_TO_END`], every traced run exactly
//! [`PER_LAYER`], in this order, and `BENCHMARK.json` lists the same names
//! and units (checked by the `metric_names_match_benchmark_json` test).

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
///
/// What an "op" is depends on the workload: one `try_compile` call
/// (`compile`), one artifact simulated by both the timing and the
/// functional simulator (`simulate`), or one request from submit to reply
/// (`service`). See README.md for the full definitions.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("code_cycles", "cycles"),
    ("code_dyn_blocks", "blocks"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload in the traced run. A layer
/// a workload does not exercise reports 0. Times and counts are per pass
/// (median over the traced passes) unless the name says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.compile_ms.bb", "ms"),
    ("core.compile_ms.upio", "ms"),
    ("core.compile_ms.iupo", "ms"),
    ("core.compile_ms.iup_o", "ms"),
    ("core.compile_ms.conv", "ms"),
    ("core.formation_ms", "ms"),
    ("core.us_per_trial", "us"),
    ("core.formation_trials", "count"),
    ("core.formation_merges", "count"),
    ("core.merge_ratio", "ratio"),
    ("core.formation_skipped", "count"),
    ("core.static_insts", "count"),
    ("core.unroll_ms", "ms"),
    ("core.backend_ms", "ms"),
    ("opt.optimize_ms", "ms"),
    ("ir.verify_ms", "ms"),
    ("sim.lower_ms", "ms"),
    ("sim.event_ms", "ms"),
    ("sim.ns_per_block", "ns"),
    ("sim.functional_ms", "ms"),
    ("sim.mcycles_per_s", "Mcycles/s"),
    ("sim.func_minsts_per_s", "Minsts/s"),
    ("sim.blocks", "count"),
    ("sim.insts_fetched", "count"),
    ("sim.insts_executed", "count"),
    ("sim.mispredictions", "count"),
    ("sim.exec_per_fetch", "ratio"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.compile_p50_ms", "ms"),
    ("service.compile_p99_ms", "ms"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_p99_ms", "ms"),
    ("service.tournament_p50_ms", "ms"),
    ("service.tournament_p99_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.shape_hit_ratio", "ratio"),
    ("service.entrants_per_tournament", "count"),
    ("service.guard_fallbacks", "count"),
    ("service.retries", "count"),
    ("service.rejected", "count"),
    ("setup.workloads_ms", "ms"),
    ("setup.testgen_ms", "ms"),
    ("setup.precompile_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Named values, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: compiles, simulations or requests, plus every
    /// output check.
    pub attempted: u64,
    /// Operations that failed: a compile or simulator error, an output
    /// mismatch, or a request that did not end `Done`.
    pub failed: u64,
    /// Metric values by name.
    pub values: Values,
    /// The run's exact results, which must not depend on tracing or speed.
    pub fingerprint: crate::Fingerprint,
}

impl Report {
    /// Count one attempted operation, failed unless `ok`.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Print each metric of `table` as a `name value unit` line, then the
    /// one-line JSON result that must end standard output.
    ///
    /// # Panics
    /// On an end-to-end metric the workload did not set, or a value that is
    /// not finite: both are bugs in the benchmark.
    pub fn print(&self, trace: bool) {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut json = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("workload did not measure {name}"),
            };
            assert!(value.is_finite(), "{name} is not finite: {value}");
            println!("{name:<34} {value:>16.6} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        );
    }
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`), 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload did not use).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB, from `VmHWM` in
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names, in order, from one array of `BENCHMARK.json`.
    fn benchmark_json_names(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array end")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("value") + 1;
            let close = rest[open..].find('"').expect("value end") + open;
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        assert_eq!(benchmark_json_names("end_to_end"), owned(END_TO_END));
        assert_eq!(benchmark_json_names("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn metric_names_use_allowed_characters() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64, "{name} too long");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name} must start with a letter or digit"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} has a character outside letters, digits, _ . -"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit} of {name}"
            );
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
