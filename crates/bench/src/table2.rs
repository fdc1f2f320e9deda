//! Table 2: percent cycle-count improvement over basic blocks for the
//! block-selection heuristics — VLIW (without and with iterative
//! optimization), depth-first, breadth-first, and the profile-guided
//! hot-first policy.
//!
//! Also hosts the *budget ablation*: BF vs HF vs DF under an equal,
//! constrained per-function trial budget on the SPEC-like composites,
//! measuring where each policy spends a fixed formation-effort ledger.

use crate::render::{pct, render_table};
use crate::{percent_improvement, try_compile_and_count, try_compile_and_time};
use chf_core::pipeline::{CompileConfig, PhaseOrdering};
use chf_core::tournament::{run_tournament, TournamentConfig};
use chf_core::{FormationStats, PolicyKind};
use chf_workloads::{microbenchmarks, spec_suite, Workload};

/// The five heuristic configurations of Table 2, in column order (the
/// paper's four plus the profile-guided `HF` ablation column).
pub fn configurations() -> Vec<(&'static str, CompileConfig)> {
    vec![
        ("VLIW", CompileConfig::with_policy(PolicyKind::Vliw, false)),
        (
            "Convergent VLIW",
            CompileConfig::with_policy(PolicyKind::Vliw, true),
        ),
        (
            "DF",
            CompileConfig::with_policy(PolicyKind::DepthFirst, true),
        ),
        (
            "BF",
            CompileConfig::with_policy(PolicyKind::BreadthFirst, true),
        ),
        ("HF", CompileConfig::with_policy(PolicyKind::HotFirst, true)),
    ]
}

/// Default per-function trial budget for the ablation: tight enough that
/// the composites cannot finish formation everywhere, so *where* a policy
/// spends its ledger becomes observable in the dynamic block counts.
pub const DEFAULT_TRIAL_BUDGET: usize = 16;

/// The budget-ablation configurations: breadth-first, hot-first, and
/// depth-first, all `(IUPO)` and all sharing the same per-function trial
/// budget so the comparison is at equal formation cost.
pub fn budget_configurations(budget: usize) -> Vec<(&'static str, CompileConfig)> {
    [
        ("BF", PolicyKind::BreadthFirst),
        ("HF", PolicyKind::HotFirst),
        ("DF", PolicyKind::DepthFirst),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let mut config = CompileConfig::with_policy(policy, true);
        config.trial_budget = Some(budget);
        (label, config)
    })
    .collect()
}

/// One benchmark's measurements.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Baseline cycles.
    pub bb_cycles: u64,
    /// `(label, cycles, improvement %, misprediction rate, formation
    /// stats)` per heuristic. The stats carry the block-utilization
    /// permilles alongside the `m/t/u/p` ledger.
    pub results: Vec<(&'static str, u64, f64, f64, FormationStats)>,
    /// Failure marker: see [`crate::table1::Row::error`].
    pub error: Option<String>,
}

impl Row {
    /// A row marking a workload that failed to produce measurements.
    pub fn poisoned(name: String, error: String) -> Self {
        Row {
            name,
            bb_cycles: 0,
            results: Vec::new(),
            error: Some(error),
        }
    }
}

/// Measure one workload under every heuristic; any failure poisons the row.
pub fn measure(w: &Workload) -> Row {
    let bb =
        match try_compile_and_time(w, &CompileConfig::with_ordering(PhaseOrdering::BasicBlocks)) {
            Ok((t, _)) => t,
            Err(e) => return Row::poisoned(w.name.clone(), e),
        };
    let mut results = Vec::new();
    for (label, config) in configurations() {
        match try_compile_and_time(w, &config) {
            Ok((t, stats)) => results.push((
                label,
                t.cycles,
                percent_improvement(bb.cycles, t.cycles),
                t.misprediction_rate(),
                stats,
            )),
            Err(e) => return Row::poisoned(w.name.clone(), e),
        }
    }
    Row {
        name: w.name.clone(),
        bb_cycles: bb.cycles,
        results,
        error: None,
    }
}

/// Run the full Table 2 experiment (parallel across benchmarks, results in
/// deterministic suite order).
pub fn run() -> Vec<Row> {
    run_with(crate::parallel::workers())
}

/// [`run`] with an explicit worker count (`1` forces the sequential path).
/// Panic-isolated: see [`crate::table1::run_with`].
pub fn run_with(workers: usize) -> Vec<Row> {
    let suite = microbenchmarks();
    crate::parallel::par_map_isolated(&suite, workers, measure)
        .into_iter()
        .zip(&suite)
        .map(|(res, w)| res.unwrap_or_else(|msg| Row::poisoned(w.name.clone(), msg)))
        .collect()
}

/// The portfolio ("oracle") column of the budget ablation: the winner of a
/// per-function policy tournament over the same three policies at both the
/// constrained budget and unbounded — what an adaptive compiler that tries
/// every entrant would pick.
#[derive(Clone, Debug)]
pub struct PortfolioCol {
    /// Winning entrant's label (`HF@16`, `BF@unb`, …).
    pub winner: String,
    /// Winner's dynamic block count.
    pub blocks: u64,
    /// Winner's percent improvement over basic blocks.
    pub improvement: f64,
    /// Winner's formation stats (`tournament_entrants` records the
    /// portfolio size).
    pub stats: FormationStats,
}

/// One composite's measurements under the constrained trial budget.
#[derive(Clone, Debug)]
pub struct BudgetRow {
    /// Benchmark name.
    pub name: String,
    /// Baseline dynamic block count (basic blocks, unbudgeted — the
    /// baseline performs no formation, so no trials are spent).
    pub bb_blocks: u64,
    /// `(label, blocks, improvement %, formation stats)` per policy. The
    /// stats carry the ledger: trials spent and candidates skipped when
    /// the budget ran out.
    pub results: Vec<(&'static str, u64, f64, FormationStats)>,
    /// The tournament winner over the portfolio
    /// `{BF, HF, DF} × {budget, unbounded}` — structurally never worse
    /// than any fixed-policy column. `None` only on poisoned rows.
    pub portfolio: Option<PortfolioCol>,
    /// Failure marker: see [`crate::table1::Row::error`].
    pub error: Option<String>,
}

impl BudgetRow {
    /// A row marking a composite that failed to produce measurements.
    pub fn poisoned(name: String, error: String) -> Self {
        BudgetRow {
            name,
            bb_blocks: 0,
            results: Vec::new(),
            portfolio: None,
            error: Some(error),
        }
    }
}

/// The tournament portfolio of the budget ablation: the three ablation
/// policies, each entered at the constrained budget *and* unbounded, scored
/// by dynamic block count. The budgeted entrants are byte-for-byte the
/// ablation's own column configurations, so the winner can never be worse
/// than the best fixed column.
pub fn portfolio_config(budget: usize) -> TournamentConfig {
    TournamentConfig {
        policies: vec![
            PolicyKind::BreadthFirst,
            PolicyKind::HotFirst,
            PolicyKind::DepthFirst,
        ],
        budgets: vec![Some(budget), None],
        guard_band_permille: 20,
        base: CompileConfig::with_policy(PolicyKind::BreadthFirst, true),
    }
}

/// Measure one composite under every budgeted policy; any failure poisons
/// the row. Uses the functional simulator (dynamic block counts), like
/// Table 3 — the ablation asks *where* the ledger was spent, and block
/// counts are the cheapest faithful proxy.
pub fn measure_budget(w: &Workload, budget: usize) -> BudgetRow {
    let bb =
        match try_compile_and_count(w, &CompileConfig::with_ordering(PhaseOrdering::BasicBlocks)) {
            Ok((r, _)) => r,
            Err(e) => return BudgetRow::poisoned(w.name.clone(), e),
        };
    let mut results = Vec::new();
    for (label, config) in budget_configurations(budget) {
        match try_compile_and_count(w, &config) {
            Ok((r, stats)) => results.push((
                label,
                r.blocks_executed,
                percent_improvement(bb.blocks_executed, r.blocks_executed),
                stats,
            )),
            Err(e) => return BudgetRow::poisoned(w.name.clone(), e),
        }
    }
    let portfolio = match run_tournament(
        &w.function,
        &w.profile,
        &w.args,
        &w.memory,
        &portfolio_config(budget),
    ) {
        Ok(t) => PortfolioCol {
            winner: t.label.clone(),
            blocks: t.score,
            improvement: percent_improvement(bb.blocks_executed, t.score),
            stats: t.compiled.stats,
        },
        Err(e) => return BudgetRow::poisoned(w.name.clone(), format!("{}: {e}", w.name)),
    };
    BudgetRow {
        name: w.name.clone(),
        bb_blocks: bb.blocks_executed,
        results,
        portfolio: Some(portfolio),
        error: None,
    }
}

/// Run the budget ablation at [`DEFAULT_TRIAL_BUDGET`] over the SPEC-like
/// composites (parallel, results in deterministic suite order).
pub fn run_budget() -> Vec<BudgetRow> {
    run_budget_with(crate::parallel::workers(), DEFAULT_TRIAL_BUDGET)
}

/// [`run_budget`] with an explicit worker count and budget. Panic-isolated:
/// see [`crate::table1::run_with`].
pub fn run_budget_with(workers: usize, budget: usize) -> Vec<BudgetRow> {
    let suite = spec_suite();
    crate::parallel::par_map_isolated(&suite, workers, |w| measure_budget(w, budget))
        .into_iter()
        .zip(&suite)
        .map(|(res, w)| res.unwrap_or_else(|msg| BudgetRow::poisoned(w.name.clone(), msg)))
        .collect()
}

/// Render the budget ablation: per-policy improvement plus the trial
/// ledger (`spent/skipped`), and the portfolio (tournament-winner) column.
pub fn render_budget(rows: &[BudgetRow], budget: usize) -> String {
    let mut header: Vec<String> = vec!["benchmark".into(), "BB blocks".into()];
    let healthy: Vec<&BudgetRow> = rows.iter().filter(|r| r.error.is_none()).collect();
    if let Some(first) = healthy.first() {
        for (label, ..) in &first.results {
            header.push(format!("{label}@{budget}"));
            header.push(format!("{label} ledger"));
        }
        header.push("portfolio".into());
        header.push("winner".into());
    }
    let mut body = Vec::new();
    for r in rows {
        if let Some(err) = &r.error {
            body.push(vec![r.name.clone(), format!("FAILED: {err}")]);
            continue;
        }
        let mut row = vec![r.name.clone(), r.bb_blocks.to_string()];
        for (_, _, improvement, stats) in &r.results {
            row.push(pct(*improvement));
            row.push(stats.ledger());
        }
        if let Some(p) = &r.portfolio {
            row.push(pct(p.improvement));
            row.push(p.winner.clone());
        }
        body.push(row);
    }
    if let Some(first) = healthy.first() {
        let mut avg = vec!["Average".to_string(), String::new()];
        let n = first.results.len();
        for k in 0..n {
            let mean: f64 =
                healthy.iter().map(|r| r.results[k].2).sum::<f64>() / healthy.len() as f64;
            avg.push(pct(mean));
            avg.push(String::new());
        }
        let port_mean: f64 = healthy
            .iter()
            .filter_map(|r| r.portfolio.as_ref())
            .map(|p| p.improvement)
            .sum::<f64>()
            / healthy.len() as f64;
        avg.push(pct(port_mean));
        avg.push(String::new());
        body.push(avg);
    }
    render_table(&header, &body)
}

/// Render in the paper's format.
pub fn render(rows: &[Row]) -> String {
    let mut header: Vec<String> = vec!["benchmark".into(), "BB cycles".into()];
    let healthy: Vec<&Row> = rows.iter().filter(|r| r.error.is_none()).collect();
    if let Some(first) = healthy.first() {
        for (label, ..) in &first.results {
            header.push((*label).to_string());
        }
    }
    let mut body = Vec::new();
    for r in rows {
        if let Some(err) = &r.error {
            body.push(vec![r.name.clone(), format!("FAILED: {err}")]);
            continue;
        }
        let mut row = vec![r.name.clone(), r.bb_cycles.to_string()];
        for (_, _, improvement, _, _) in &r.results {
            row.push(pct(*improvement));
        }
        body.push(row);
    }
    if let Some(first) = healthy.first() {
        let mut avg = vec!["Average".to_string(), String::new()];
        let n = first.results.len();
        for k in 0..n {
            let mean: f64 =
                healthy.iter().map(|r| r.results[k].2).sum::<f64>() / healthy.len() as f64;
            avg.push(pct(mean));
        }
        body.push(avg);
    }
    render_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_configurations() {
        let cs = configurations();
        assert_eq!(cs.len(), 5);
        assert_eq!(cs[0].0, "VLIW");
        assert_eq!(cs[3].0, "BF");
        assert_eq!(cs[4].0, "HF");
    }

    #[test]
    fn measure_reports_all_heuristics() {
        let w = chf_workloads::micro::bzip2_1();
        let row = measure(&w);
        assert_eq!(row.results.len(), 5);
    }

    #[test]
    fn budget_configurations_share_one_budget() {
        let cs = budget_configurations(8);
        assert_eq!(cs.len(), 3);
        for (label, config) in &cs {
            assert_eq!(config.trial_budget, Some(8), "{label}");
            assert_eq!(config.ordering, PhaseOrdering::Iupo_, "{label}");
        }
        assert_eq!(cs[0].0, "BF");
        assert_eq!(cs[1].0, "HF");
        assert_eq!(cs[2].0, "DF");
    }

    #[test]
    fn measure_budget_records_ledger() {
        let suite = spec_suite();
        let w = suite.iter().find(|w| w.name == "gzip").unwrap();
        let row = measure_budget(w, 4);
        assert!(row.error.is_none(), "{:?}", row.error);
        assert_eq!(row.results.len(), 3);
        for (label, _, _, stats) in &row.results {
            // Composites are single functions and `(IUPO)` invokes
            // formation once, so the per-function cap is a hard cap.
            assert!(
                stats.trials <= 4,
                "{label}: trials {} exceed the cap",
                stats.trials
            );
        }
        // A budget of 4 trials must actually constrain gzip's formation:
        // at least one policy should have skipped candidates.
        assert!(
            row.results.iter().any(|(_, _, _, s)| s.budget_skipped > 0),
            "budget 4 did not constrain gzip"
        );
    }
}
