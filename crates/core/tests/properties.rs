//! Property-based tests over convergent hyperblock formation: behaviour
//! preservation and constraint conformance under arbitrary programs,
//! inputs, policies, and configuration knobs.

use chf_core::constraints::BlockConstraints;
use chf_core::convergent::{form_hyperblocks_with_profile, FormationConfig};
use chf_core::policy::PolicyKind;
use chf_ir::testgen::{generate, GenConfig};
use chf_ir::verify::verify;
use chf_sim::functional::{profile_run, run, RunConfig};
use proptest::prelude::*;

fn policy_by_index(i: usize) -> PolicyKind {
    match i {
        0 => PolicyKind::BreadthFirst,
        1 => PolicyKind::BreadthFirstLookahead,
        2 => PolicyKind::DepthFirst,
        _ => PolicyKind::Vliw,
    }
}

fn formation_config() -> impl Strategy<Value = FormationConfig> {
    (
        24usize..128,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        8usize..64,
    )
        .prop_map(
            |(max_insts, head, tail, iterative, speculation, tail_limit)| FormationConfig {
                constraints: BlockConstraints {
                    max_insts,
                    headroom_percent: 0,
                    ..BlockConstraints::trips()
                },
                head_duplication: head,
                tail_duplication: tail,
                iterative_opt: iterative,
                trip_aware_unroll: true,
                speculation,
                max_tail_dup_size: tail_limit,
                ..FormationConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Formation preserves observable behaviour for every policy and any
    /// combination of configuration knobs.
    #[test]
    fn formation_preserves_behaviour(
        seed in any::<u64>(),
        policy_idx in 0usize..4,
        config in formation_config(),
        a in -50i64..50,
        b in -50i64..50,
    ) {
        let mut f = generate(seed, &GenConfig::default());
        let profile = profile_run(&f, &[3, 7], &[]).unwrap();
        profile.apply(&mut f);
        let orig = f.clone();
        let mut policy = policy_by_index(policy_idx).instantiate();
        form_hyperblocks_with_profile(&mut f, policy.as_mut(), &config, Some(&profile));
        prop_assert!(verify(&f).is_ok(), "formation broke the IR:\n{f}");
        let r0 = run(&orig, &[a, b], &[], &RunConfig::default()).unwrap();
        let r1 = run(&f, &[a, b], &[], &RunConfig::default()).unwrap();
        prop_assert_eq!(r0.digest(), r1.digest());
    }

    /// Formed blocks respect the size constraint they were given.
    #[test]
    fn formation_respects_size_constraint(
        seed in any::<u64>(),
        max_insts in 24usize..96,
    ) {
        let mut f = generate(seed, &GenConfig::default());
        let profile = profile_run(&f, &[3, 7], &[]).unwrap();
        profile.apply(&mut f);
        let config = FormationConfig {
            constraints: BlockConstraints {
                max_insts,
                headroom_percent: 0,
                ..BlockConstraints::trips()
            },
            ..FormationConfig::default()
        };
        let pre_max = f.blocks().map(|(_, b)| b.size()).max().unwrap_or(0);
        let mut policy = PolicyKind::BreadthFirst.instantiate();
        form_hyperblocks_with_profile(&mut f, policy.as_mut(), &config, Some(&profile));
        for (b, blk) in f.blocks() {
            // Blocks that were already over the limit before formation are
            // the backend splitter's job; formation must not create new
            // violations.
            prop_assert!(
                blk.size() <= max_insts.max(pre_max),
                "block {} has {} slots (limit {})",
                b,
                blk.size(),
                max_insts
            );
        }
    }

    /// Formation never increases the dynamic block count.
    #[test]
    fn formation_never_increases_dynamic_blocks(seed in any::<u64>()) {
        let mut f = generate(seed, &GenConfig::default());
        let profile = profile_run(&f, &[3, 7], &[]).unwrap();
        profile.apply(&mut f);
        let orig = f.clone();
        let mut policy = PolicyKind::BreadthFirst.instantiate();
        form_hyperblocks_with_profile(
            &mut f,
            policy.as_mut(),
            &FormationConfig::default(),
            Some(&profile),
        );
        let r0 = run(&orig, &[3, 7], &[], &RunConfig::default()).unwrap();
        let r1 = run(&f, &[3, 7], &[], &RunConfig::default()).unwrap();
        prop_assert!(
            r1.blocks_executed <= r0.blocks_executed,
            "{} > {}",
            r1.blocks_executed,
            r0.blocks_executed
        );
    }

    /// The whole compile pipeline (any ordering) preserves behaviour — the
    /// umbrella property the evaluation harness relies on.
    #[test]
    fn pipeline_preserves_behaviour(
        seed in any::<u64>(),
        ordering_idx in 0usize..5,
        a in -50i64..50,
    ) {
        use chf_core::pipeline::{compile, CompileConfig, PhaseOrdering};
        let ordering = [
            PhaseOrdering::BasicBlocks,
            PhaseOrdering::Upio,
            PhaseOrdering::Iupo,
            PhaseOrdering::IupThenO,
            PhaseOrdering::Iupo_,
        ][ordering_idx];
        let f = generate(seed, &GenConfig::default());
        let profile = profile_run(&f, &[3, 7], &[]).unwrap();
        let c = compile(&f, &profile, &CompileConfig::with_ordering(ordering));
        prop_assert!(verify(&c.function).is_ok());
        let r0 = run(&f, &[a, 9], &[], &RunConfig::default()).unwrap();
        let r1 = run(&c.function, &[a, 9], &[], &RunConfig::default()).unwrap();
        prop_assert_eq!(r0.digest(), r1.digest());
    }
}
