//! Smoke tests over the experiment harness: the headline claims of the
//! paper's evaluation must hold on the reproduced tables.

use chf_bench::{fig7, table1, table2, table3};

/// Table 1's headline: convergent hyperblock formation outperforms the
/// classical discrete phase orderings on average (the paper reports a 2–11%
/// margin over UPIO/IUPO).
#[test]
fn table1_convergent_beats_discrete_on_average() {
    let rows = table1::run();
    assert_eq!(rows.len(), 24);
    let avg = |k: usize| -> f64 {
        rows.iter().map(|r| r.columns[k].improvement).sum::<f64>() / rows.len() as f64
    };
    let (upio, iupo, iup_o, iupo_full) = (avg(0), avg(1), avg(2), avg(3));
    assert!(
        iupo_full > upio && iupo_full > iupo,
        "convergent (IUPO) must beat discrete orderings: {iupo_full:.1} vs {upio:.1}/{iupo:.1}"
    );
    assert!(
        iup_o > upio,
        "(IUP)O must beat UPIO: {iup_o:.1} vs {upio:.1}"
    );
    // Hyperblock formation must be broadly profitable.
    assert!(
        iupo_full > 15.0,
        "average improvement too low: {iupo_full:.1}"
    );
}

/// Table 2's headline: breadth-first is the best EDGE heuristic; iterative
/// optimization improves the VLIW heuristic; bzip2_3 is a pathology for
/// DF/VLIW but fine for BF (§7.2).
#[test]
fn table2_policy_ordering_matches_paper() {
    let rows = table2::run();
    let avg = |k: usize| -> f64 {
        rows.iter().map(|r| r.columns[k].improvement).sum::<f64>() / rows.len() as f64
    };
    let (vliw, conv_vliw, df, bf) = (avg(0), avg(1), avg(2), avg(3));
    assert!(
        bf > vliw && bf > df,
        "BF must be best: {bf:.1} vs {vliw:.1}/{df:.1}"
    );
    assert!(
        conv_vliw >= vliw,
        "iterative optimization must not hurt VLIW: {conv_vliw:.1} vs {vliw:.1}"
    );

    let bzip2_3 = rows.iter().find(|r| r.name == "bzip2_3").unwrap();
    let (df_imp, bf_imp) = (
        bzip2_3.columns[2].improvement,
        bzip2_3.columns[3].improvement,
    );
    assert!(
        bf_imp > 20.0 && df_imp < 0.0,
        "bzip2_3 pathology: BF {bf_imp:.1} should win, DF {df_imp:.1} should lose"
    );

    // parser_1: the VLIW heuristic's exclusions raise its misprediction
    // rate well above breadth-first's (the paper reports 11×).
    let parser = rows.iter().find(|r| r.name == "parser_1").unwrap();
    let (vliw_mr, bf_mr) = (
        parser.columns[0].measure.mispredict_rate,
        parser.columns[3].measure.mispredict_rate,
    );
    assert!(
        vliw_mr > bf_mr,
        "parser_1 misprediction rates: VLIW {vliw_mr:.3} !> BF {bf_mr:.3}"
    );
}

/// Table 3's headline: block counts improve monotonically from UPIO to the
/// fully convergent ordering, on average, over the SPEC-like suite.
#[test]
fn table3_block_count_ordering() {
    let rows = table3::run();
    assert_eq!(rows.len(), 19);
    let avg = |k: usize| -> f64 {
        rows.iter().map(|r| r.columns[k].improvement).sum::<f64>() / rows.len() as f64
    };
    let (upio, iupo, iup_o, iupo_full) = (avg(0), avg(1), avg(2), avg(3));
    assert!(iupo > upio, "IUPO {iupo:.1} !> UPIO {upio:.1}");
    assert!(iup_o > iupo, "(IUP)O {iup_o:.1} !> IUPO {iupo:.1}");
    assert!(
        iupo_full >= iup_o,
        "(IUPO) {iupo_full:.1} !>= (IUP)O {iup_o:.1}"
    );
    // Every composite must improve under the convergent ordering.
    for r in &rows {
        let conv = r.columns[3].improvement;
        assert!(conv > 0.0, "{} did not improve: {conv:.1}", r.name);
    }
}

/// Budget-ablation headline: under an equal, constrained trial budget the
/// profile-guided hot-first policy spends its ledger on the hot regions
/// first, so its total dynamic-block reduction over the 19 composites is
/// never worse than breadth-first's.
#[test]
fn table2_budget_hotfirst_at_least_matches_breadth_first() {
    let rows = table2::run_budget_with(4, table2::DEFAULT_TRIAL_BUDGET);
    assert_eq!(rows.len(), 19);
    let total = |k: usize| -> u64 {
        rows.iter()
            .filter(|r| r.error.is_none())
            .map(|r| r.columns[k].measure.blocks)
            .sum()
    };
    let (bf, hf) = (total(0), total(1));
    assert!(
        hf <= bf,
        "HF dynamic blocks {hf} must not exceed BF {bf} at equal budget"
    );
    // The budget must genuinely constrain the suite: the ledger should
    // record skipped candidates somewhere, for every policy column.
    for k in 0..3 {
        assert!(
            rows.iter()
                .filter(|r| r.error.is_none())
                .any(|r| r.columns[k].measure.stats.budget_skipped > 0),
            "column {k}: budget never binds — ablation is vacuous"
        );
    }
}

/// Portfolio headline: the per-function tournament over
/// `{BF, HF, DF} × {budget, unbounded}` contains every fixed column as an
/// entrant, so its suite-total dynamic block count can never exceed the
/// best fixed policy's — in particular HF's, the strongest fixed column.
#[test]
fn table2_portfolio_never_worse_than_any_fixed_policy() {
    let rows = table2::run_budget_with(4, table2::DEFAULT_TRIAL_BUDGET);
    assert_eq!(rows.len(), 19);
    let healthy: Vec<_> = rows.iter().filter(|r| r.error.is_none()).collect();
    assert_eq!(healthy.len(), 19, "portfolio run poisoned a composite");
    let portfolio: u64 = healthy
        .iter()
        .map(|r| {
            r.columns
                .last()
                .expect("healthy row has portfolio")
                .measure
                .blocks
        })
        .sum();
    for k in 0..3 {
        let fixed: u64 = healthy.iter().map(|r| r.columns[k].measure.blocks).sum();
        let label = &healthy[0].columns[k].label;
        assert!(
            portfolio <= fixed,
            "portfolio {portfolio} blocks > fixed {label} {fixed}"
        );
    }
    // Per-row dominance too: the winner is selected per function, so it
    // must match or beat every fixed column on every single composite.
    for r in &healthy {
        let (p, fixed) = r.columns.split_last().unwrap();
        for c in fixed {
            assert!(
                p.measure.blocks <= c.measure.blocks,
                "{}: portfolio {} ({}) > {} {}",
                r.name,
                p.measure.blocks,
                p.label,
                c.label,
                c.measure.blocks
            );
        }
        assert!(
            p.measure.stats.tournament_entrants == 6,
            "{}: portfolio ran {} entrants, expected 6",
            r.name,
            p.measure.stats.tournament_entrants
        );
    }
}

/// Figure 7's headline: cycle-count reduction correlates positively with
/// block-count reduction.
#[test]
fn fig7_positive_correlation() {
    let rows = table1::run();
    let pts = fig7::points(&rows);
    assert_eq!(pts.len(), 24 * 4);
    let fit = fig7::linear_fit(&pts);
    assert!(fit.slope > 0.0, "slope {:.2} must be positive", fit.slope);
    assert!(
        fit.r2 > 0.3,
        "correlation too weak: r^2 = {:.3} (paper: 0.78)",
        fit.r2
    );
}
