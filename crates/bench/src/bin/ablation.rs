//! Ablation study over the design choices DESIGN.md calls out: speculation,
//! iterative optimization, trip-aware unrolling, head duplication, tail
//! duplication, the tail-duplication size limit, and the lookahead policy.
//!
//! For each configuration, reports the average % cycle improvement of
//! convergent formation over basic blocks across the 24 microbenchmarks.

use chf_core::convergent::{form_hyperblocks_with_profile, FormationConfig};
use chf_core::reverse::split_oversized;
use chf_core::PolicyKind;
use chf_sim::predictor::PredictorKind;
use chf_sim::timing::{simulate_timing, TimingConfig};
use chf_workloads::{microbenchmarks, Workload};

/// Compile with an explicit formation configuration (always followed by the
/// final scalar-optimization pass and backend splitting, like the
/// pipeline).
fn compile_with(w: &Workload, policy: PolicyKind, config: &FormationConfig) -> u64 {
    let mut f = w.function.clone();
    w.profile.apply(&mut f);
    let mut p = policy.instantiate();
    form_hyperblocks_with_profile(&mut f, p.as_mut(), config, Some(&w.profile));
    chf_opt::optimize(&mut f);
    split_oversized(&mut f, &config.constraints);
    chf_ir::cfg::remove_unreachable(&mut f);
    let t = simulate_timing(&f, &w.args, &w.memory, &TimingConfig::trips())
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    assert_eq!(t.ret, Some(w.expected), "{} miscompiled", w.name);
    t.cycles
}

fn main() {
    let workers = chf_bench::parallel::workers();
    let suite = microbenchmarks();
    let baselines: Vec<u64> = chf_bench::parallel::par_map(&suite, workers, |w| {
        let mut f = w.function.clone();
        w.profile.apply(&mut f);
        chf_opt::optimize(&mut f);
        simulate_timing(&f, &w.args, &w.memory, &TimingConfig::trips())
            .unwrap()
            .cycles
    });

    let average = |policy: PolicyKind, config: &FormationConfig| -> f64 {
        let cycles =
            chf_bench::parallel::par_map(&suite, workers, |w| compile_with(w, policy, config));
        cycles
            .iter()
            .zip(&baselines)
            .map(|(&c, &bb)| (bb as f64 - c as f64) / bb as f64 * 100.0)
            .sum::<f64>()
            / suite.len() as f64
    };

    let full = FormationConfig::default();
    println!("Ablation: average % cycle improvement over basic blocks (24 micros)\n");
    println!("{:<38} {:>8}", "configuration", "avg %");
    println!("{}", "-".repeat(48));

    let configs: Vec<(&str, PolicyKind, FormationConfig)> = vec![
        (
            "full convergent (BF)",
            PolicyKind::BreadthFirst,
            full.clone(),
        ),
        (
            "  - speculation (guard everything)",
            PolicyKind::BreadthFirst,
            FormationConfig {
                speculation: false,
                ..full.clone()
            },
        ),
        (
            "  - iterative optimization",
            PolicyKind::BreadthFirst,
            FormationConfig {
                iterative_opt: false,
                ..full.clone()
            },
        ),
        (
            "  - trip-aware unrolling",
            PolicyKind::BreadthFirst,
            FormationConfig {
                trip_aware_unroll: false,
                ..full.clone()
            },
        ),
        (
            "  - head duplication (no unroll/peel)",
            PolicyKind::BreadthFirst,
            FormationConfig {
                head_duplication: false,
                ..full.clone()
            },
        ),
        (
            "  - tail duplication",
            PolicyKind::BreadthFirst,
            FormationConfig {
                tail_duplication: false,
                ..full.clone()
            },
        ),
        (
            "  tail-dup limit 8 (aggressive)",
            PolicyKind::BreadthFirst,
            FormationConfig {
                max_tail_dup_size: 8,
                ..full.clone()
            },
        ),
        (
            "  tail-dup limit 128 (unlimited)",
            PolicyKind::BreadthFirst,
            FormationConfig {
                max_tail_dup_size: 128,
                ..full.clone()
            },
        ),
        (
            "full convergent (BF+lookahead)",
            PolicyKind::BreadthFirstLookahead,
            full.clone(),
        ),
    ];

    for (label, policy, config) in configs {
        println!("{:<38} {:>7.1}", label, average(policy, &config));
    }

    // --- Timing-model sensitivity: how much of the hyperblock win depends
    // on the microarchitectural assumptions? ---
    println!(
        "
Timing-model sensitivity (convergent BF vs BB under each model)
"
    );
    println!("{:<38} {:>8}", "timing model", "avg %");
    println!("{}", "-".repeat(48));
    let timing_variants: Vec<(&str, TimingConfig)> = vec![
        ("TRIPS baseline", TimingConfig::trips()),
        (
            "  bimodal next-block predictor",
            TimingConfig {
                predictor: PredictorKind::Bimodal,
                ..TimingConfig::trips()
            },
        ),
        (
            "  no next-block prediction",
            TimingConfig {
                predictor: PredictorKind::Static,
                ..TimingConfig::trips()
            },
        ),
        (
            "  window of 2 blocks",
            TimingConfig {
                window_blocks: 2,
                ..TimingConfig::trips()
            },
        ),
        (
            "  double block overhead",
            TimingConfig {
                block_overhead: TimingConfig::trips().block_overhead * 2,
                ..TimingConfig::trips()
            },
        ),
        (
            "  zero block overhead",
            TimingConfig {
                block_overhead: 0,
                ..TimingConfig::trips()
            },
        ),
    ];
    for (label, tcfg) in timing_variants {
        let improvements = chf_bench::parallel::par_map(&suite, workers, |w| {
            // Baseline under this model.
            let mut base = w.function.clone();
            w.profile.apply(&mut base);
            chf_opt::optimize(&mut base);
            let bb = simulate_timing(&base, &w.args, &w.memory, &tcfg)
                .unwrap()
                .cycles;
            // Convergent under this model.
            let mut f = w.function.clone();
            w.profile.apply(&mut f);
            let mut p = PolicyKind::BreadthFirst.instantiate();
            form_hyperblocks_with_profile(&mut f, p.as_mut(), &full, Some(&w.profile));
            chf_opt::optimize(&mut f);
            split_oversized(&mut f, &full.constraints);
            chf_ir::cfg::remove_unreachable(&mut f);
            let c = simulate_timing(&f, &w.args, &w.memory, &tcfg)
                .unwrap()
                .cycles;
            (bb as f64 - c as f64) / bb as f64 * 100.0
        });
        let total: f64 = improvements.iter().sum();
        println!("{:<38} {:>7.1}", label, total / suite.len() as f64);
    }
}
