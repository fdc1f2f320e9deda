//! Table 2: percent cycle-count improvement over basic blocks for the
//! block-selection heuristics — VLIW (without and with iterative
//! optimization), depth-first, breadth-first, and the profile-guided
//! hot-first policy.
//!
//! Also hosts the *budget ablation*: BF vs HF vs DF under an equal,
//! constrained per-function trial budget on the SPEC-like composites,
//! measuring where each policy spends a fixed formation-effort ledger.

use crate::render::{pct, render_rows};
use crate::{csv, measure_row, percent_improvement, Column, Measure, Row, Sim};
use chf_core::pipeline::CompileConfig;
use chf_core::tournament::{run_tournament, TournamentConfig};
use chf_core::PolicyKind;
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

/// Measure one workload under every heuristic on the timing simulator.
///
/// # Errors
/// See [`measure_row`].
pub fn measure(w: &Workload) -> Result<Row, String> {
    measure_row(w, Sim::Timing, &configurations())
}

/// Run the full Table 2 experiment (parallel across benchmarks, results in
/// deterministic suite order).
pub fn run() -> Vec<Row> {
    run_with(crate::parallel::workers())
}

/// [`run`] with an explicit worker count (`1` forces the sequential path).
pub fn run_with(workers: usize) -> Vec<Row> {
    crate::run(&microbenchmarks(), workers, measure)
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

/// Measure one composite under every budgeted policy, then add the
/// portfolio ("oracle") column: the winner of a per-function tournament
/// over [`portfolio_config`] — what an adaptive compiler that tries every
/// entrant would pick. Its label is the winning entrant (`HF@16`,
/// `BF@unb`, …) and its stats record the portfolio size in
/// `tournament_entrants`. Uses the functional simulator (dynamic block
/// counts), like Table 3 — the ablation asks *where* the ledger was spent,
/// and block counts are the cheapest faithful proxy.
///
/// # Errors
/// See [`measure_row`]; also a failed tournament.
pub fn measure_budget(w: &Workload, budget: usize) -> Result<Row, String> {
    let mut row = measure_row(w, Sim::Functional, &budget_configurations(budget))?;
    let t = run_tournament(
        &w.function,
        &w.profile,
        &w.args,
        &w.memory,
        &portfolio_config(budget),
    )
    .map_err(|e| format!("{}: {e}", w.name))?;
    row.columns.push(Column {
        label: t.label,
        improvement: percent_improvement(row.baseline.blocks, t.score),
        measure: Measure {
            blocks: t.score,
            stats: t.compiled.stats,
            ..Measure::default()
        },
    });
    Ok(row)
}

/// Run the budget ablation at [`DEFAULT_TRIAL_BUDGET`] over the SPEC-like
/// composites (parallel, results in deterministic suite order).
pub fn run_budget() -> Vec<Row> {
    run_budget_with(crate::parallel::workers(), DEFAULT_TRIAL_BUDGET)
}

/// [`run_budget`] with an explicit worker count and budget.
pub fn run_budget_with(workers: usize, budget: usize) -> Vec<Row> {
    crate::run(&spec_suite(), workers, |w| measure_budget(w, budget))
}

/// Render in the paper's format.
pub fn render(rows: &[Row]) -> String {
    let mut header = vec!["benchmark".to_string(), "BB cycles".to_string()];
    header.extend(configurations().iter().map(|(label, _)| label.to_string()));
    let cells = |r: &Row| {
        let mut cells = vec![r.baseline.cycles.to_string()];
        cells.extend(r.columns.iter().map(|c| pct(c.improvement)));
        cells
    };
    render_rows(&header, rows, cells, Some(|mean| vec![pct(mean)]))
}

/// Table 2 rows as CSV (see [`csv::write_rows`]).
pub fn csv(rows: &[Row]) -> String {
    let labels = configurations().into_iter().map(|(label, _)| label);
    let fields = ["cycles", "improvement", "mispredict_rate", "util"];
    let header = format!("benchmark,bb_cycles{}", csv::columns(labels, &fields));
    csv::write_rows(&header, rows, |r| {
        let mut cells = vec![r.baseline.cycles.to_string()];
        for c in &r.columns {
            cells.extend([
                c.measure.cycles.to_string(),
                format!("{:.2}", c.improvement),
                format!("{:.4}", c.measure.mispredict_rate),
                c.measure.stats.utilization(),
            ]);
        }
        cells
    })
}

/// Render the budget ablation: per-policy improvement plus the trial
/// ledger (`spent/skipped`), and the portfolio column with its winner.
pub fn render_budget(rows: &[Row], budget: usize) -> String {
    let mut header = vec!["benchmark".to_string(), "BB blocks".to_string()];
    for (label, _) in budget_configurations(budget) {
        header.push(format!("{label}@{budget}"));
        header.push(format!("{label} ledger"));
    }
    header.push("portfolio".into());
    header.push("winner".into());
    let cells = |r: &Row| {
        let mut cells = vec![r.baseline.blocks.to_string()];
        let (portfolio, fixed) = r.columns.split_last().expect("portfolio column");
        for c in fixed {
            cells.push(pct(c.improvement));
            cells.push(c.measure.stats.ledger());
        }
        cells.push(pct(portfolio.improvement));
        cells.push(portfolio.label.clone());
        cells
    };
    render_rows(
        &header,
        rows,
        cells,
        Some(|mean| vec![pct(mean), String::new()]),
    )
}

/// Budget-ablation rows as CSV: per policy, the dynamic block count, the
/// improvement over basic blocks, and the trial ledger (trials spent,
/// candidates skipped for budget, and the full `m/t/u/p` string); then the
/// portfolio winner's blocks, improvement, label and portfolio size.
pub fn budget_csv(rows: &[Row]) -> String {
    let labels = budget_configurations(DEFAULT_TRIAL_BUDGET)
        .into_iter()
        .map(|(label, _)| label);
    let fields = ["blocks", "improvement", "trials", "skipped", "mtup"];
    let header = format!(
        "benchmark,bb_blocks{},portfolio_blocks,portfolio_improvement,portfolio_winner,\
         portfolio_entrants",
        csv::columns(labels, &fields)
    );
    csv::write_rows(&header, rows, |r| {
        let mut cells = vec![r.baseline.blocks.to_string()];
        let (portfolio, fixed) = r.columns.split_last().expect("portfolio column");
        for c in fixed {
            let stats = &c.measure.stats;
            cells.extend([
                c.measure.blocks.to_string(),
                format!("{:.2}", c.improvement),
                stats.trials.to_string(),
                stats.budget_skipped.to_string(),
                stats.mtup(),
            ]);
        }
        cells.extend([
            portfolio.measure.blocks.to_string(),
            format!("{:.2}", portfolio.improvement),
            portfolio.label.clone(),
            portfolio.measure.stats.tournament_entrants.to_string(),
        ]);
        cells
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_core::pipeline::PhaseOrdering;

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
        let row = measure(&w).unwrap();
        assert_eq!(row.columns.len(), 5);
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
        let row = measure_budget(w, 4).unwrap();
        let (portfolio, fixed) = row.columns.split_last().unwrap();
        assert_eq!(fixed.len(), 3);
        assert_eq!(portfolio.measure.stats.tournament_entrants, 6);
        for c in fixed {
            // Composites are single functions and `(IUPO)` invokes
            // formation once, so the per-function cap is a hard cap.
            assert!(
                c.measure.stats.trials <= 4,
                "{}: trials {} exceed the cap",
                c.label,
                c.measure.stats.trials
            );
        }
        // A budget of 4 trials must actually constrain gzip's formation:
        // at least one policy should have skipped candidates.
        assert!(
            fixed.iter().any(|c| c.measure.stats.budget_skipped > 0),
            "budget 4 did not constrain gzip"
        );
    }
}
