//! `try_compile`, phase by phase through public functions, with a span
//! around each phase.
//!
//! The traced run compiles through this mirror; it must produce the same
//! artifact as `chf_core::try_compile` byte for byte ([`same_artifact`]),
//! which the traced `compile` run checks on every artifact and a test
//! checks on both paper suites. The only step not mirrored is the block
//! utilization summary (`FormationStats::util_*`), whose function is
//! private; it changes no artifact and no `m/t/u/p` count.

use crate::trace::Tracer;
use chf_core::convergent::{
    form_hyperblocks_with_profile, FormationConfig, FormationStats, SeedOrder,
};
use chf_core::fanout::insert_fanout;
use chf_core::regalloc::{allocate_registers, RegFileSpec};
use chf_core::reverse::split_oversized;
use chf_core::unroll::{cfg_unroll_and_peel, hyperblock_unroll_peel};
use chf_core::{ChfError, CompileConfig, Compiled, PhaseOrdering, PolicyKind};
use chf_ir::function::Function;
use chf_ir::profile::ProfileData;

/// The five orderings of Tables 1 and 3, with the name of their span.
pub const ORDERINGS: [(PhaseOrdering, &str); 5] = [
    (PhaseOrdering::BasicBlocks, "core.compile_ms.bb"),
    (PhaseOrdering::Upio, "core.compile_ms.upio"),
    (PhaseOrdering::Iupo, "core.compile_ms.iupo"),
    (PhaseOrdering::IupThenO, "core.compile_ms.iup_o"),
    (PhaseOrdering::Iupo_, "core.compile_ms.conv"),
];

/// The formation configuration `try_compile` derives from `config`, rebuilt
/// from the public fields of [`FormationConfig`].
fn formation_config(config: &CompileConfig, head: bool, iterative_opt: bool) -> FormationConfig {
    FormationConfig {
        constraints: config.constraints.clone(),
        head_duplication: head,
        tail_duplication: true,
        iterative_opt,
        trial_budget: config.trial_budget,
        deadline: config.deadline,
        chaos: config.chaos,
        seed_order: if config.policy == PolicyKind::HotFirst {
            SeedOrder::HotFirst
        } else {
            SeedOrder::Frequency
        },
        ..FormationConfig::default()
    }
}

/// Compile `f` as `try_compile(f, profile, config)` does, recording
/// `core.formation_ms`, `core.unroll_ms`, `opt.optimize_ms`,
/// `core.backend_ms` and `ir.verify_ms`.
///
/// # Errors
/// As `try_compile`: the compiled output fails structural verification.
pub fn compile(
    f: &Function,
    profile: &ProfileData,
    config: &CompileConfig,
    t: &mut Tracer,
) -> Result<Compiled, ChfError> {
    let mut f = f.clone();
    profile.apply(&mut f);
    let mut stats = FormationStats::default();
    let mut policy = config.policy.instantiate();
    let mut form = |f: &mut Function, head: bool, iterative_opt: bool, t: &mut Tracer| {
        let cfg = formation_config(config, head, iterative_opt);
        t.span("core.formation_ms", || {
            form_hyperblocks_with_profile(f, policy.as_mut(), &cfg, Some(profile))
        })
    };

    match config.ordering {
        PhaseOrdering::BasicBlocks => {}
        PhaseOrdering::Upio => {
            let up = t.span("core.unroll_ms", || {
                cfg_unroll_and_peel(&mut f, profile, &config.unroll)
            });
            stats.unrolls += up.unrolls;
            stats.peels += up.peels;
            stats.merge(&form(&mut f, false, false, t));
        }
        PhaseOrdering::Iupo => {
            stats.merge(&form(&mut f, false, false, t));
            let up = t.span("core.unroll_ms", || {
                hyperblock_unroll_peel(&mut f, profile, &config.constraints, &config.unroll)
            });
            stats.unrolls += up.unrolls;
            stats.peels += up.peels;
        }
        PhaseOrdering::IupThenO => stats.merge(&form(&mut f, true, false, t)),
        PhaseOrdering::Iupo_ => stats.merge(&form(&mut f, true, true, t)),
    }
    t.span("opt.optimize_ms", || chf_opt::optimize(&mut f));

    t.span("core.backend_ms", || {
        if config.backend {
            allocate_registers(&mut f, &RegFileSpec::trips());
            insert_fanout(&mut f, config.fanout_targets);
        }
        split_oversized(&mut f, &config.constraints);
    });
    t.span("ir.verify_ms", || {
        chf_ir::cfg::remove_unreachable(&mut f);
        chf_ir::verify::verify(&f)
    })
    .map_err(|error| ChfError::Verify {
        context: "compiled output",
        error,
    })?;
    Ok(Compiled { function: f, stats })
}

/// Whether two compilations print byte-identically and have the same
/// `m/t/u/p` counts.
pub fn same_artifact(a: &Compiled, b: &Compiled) -> bool {
    a.stats.mtup() == b.stats.mtup() && a.function.to_string() == b.function.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_core::try_compile;

    #[test]
    fn mirror_matches_try_compile_on_both_paper_suites() {
        let mut t = Tracer::new(true);
        for p in crate::suite::paper() {
            for (ordering, _) in ORDERINGS {
                let config = CompileConfig::with_ordering(ordering);
                let want = try_compile(&p.function, &p.profile, &config).expect("compiles");
                let got = compile(&p.function, &p.profile, &config, &mut t).expect("compiles");
                assert!(
                    same_artifact(&want, &got),
                    "{} under {} differs from try_compile",
                    p.name,
                    ordering.label()
                );
            }
        }
        assert!(t.get("core.formation_ms") > 0.0 && t.get("opt.optimize_ms") > 0.0);
    }
}
