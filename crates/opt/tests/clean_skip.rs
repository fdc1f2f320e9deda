//! Clean-block skipping: the block-local passes (constfold, strength,
//! copyprop, local GVN, predopt) skip a block whose clean-mask bit says they
//! already returned `false` on its current contents. That skip is exact only
//! if a pass that returns `false` leaves its block unchanged; these tests
//! check that invariant, and that a function carrying a warm mask optimizes
//! to exactly the same code as a copy whose mask is cold.

use chf_core::convergent::{form_hyperblocks_with_profile, FormationConfig};
use chf_core::PolicyKind;
use chf_ir::block::Block;
use chf_ir::function::Function;
use chf_ir::parse::parse_function;
use chf_ir::profile::ProfileData;
use chf_ir::testgen::{generate, GenConfig};
use chf_opt::{constfold, copyprop, gvn, optimize, optimize_quick, predopt, strength};
use chf_sim::functional::profile_run;
use proptest::prelude::*;

/// A block-local pass: rewrites one block, reports whether it changed it.
type LocalPass = fn(&mut Block) -> bool;

/// The five block-local passes, in standard-pipeline order.
const LOCAL_PASSES: [(&str, LocalPass); 5] = [
    ("constfold", constfold::fold_block),
    ("strength", strength::reduce_block),
    ("copyprop", copyprop::propagate_block),
    ("gvn-local", gvn::value_number_block),
    ("predopt", predopt::optimize_block),
];

/// Drive every block of `f` through three rounds of the local passes (on a
/// copy) and return the first pass that reported `false` yet changed the
/// block's `Debug` form.
fn unchanged_when_false(f: &Function) -> Result<(), String> {
    for (id, blk) in f.blocks() {
        let mut blk = blk.clone();
        for round in 0..3 {
            for (name, pass) in LOCAL_PASSES {
                let before = format!("{blk:?}");
                if !pass(&mut blk) && format!("{blk:?}") != before {
                    return Err(format!(
                        "{}: {name} returned false but changed {id} (round {round})",
                        f.name
                    ));
                }
            }
        }
    }
    Ok(())
}

/// `f` after (IUPO) formation guided by `profile`.
fn formed(f: &Function, profile: &ProfileData) -> Function {
    let mut f = f.clone();
    profile.apply(&mut f);
    let mut policy = PolicyKind::BreadthFirst.instantiate();
    form_hyperblocks_with_profile(
        &mut f,
        policy.as_mut(),
        &FormationConfig::default(),
        Some(profile),
    );
    f
}

fn formed_testgen(seed: u64) -> Function {
    let f = generate(seed, &GenConfig::default());
    let profile = profile_run(&f, &[5, 9], &[]).expect("generated programs run");
    formed(&f, &profile)
}

/// Formation outputs of the paper micros and a range of testgen programs.
fn formation_outputs() -> Vec<Function> {
    let micros = chf_workloads::microbenchmarks()
        .into_iter()
        .map(|w| formed(&w.function, &w.profile));
    micros.chain((0..24).map(formed_testgen)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On generated programs, a local pass that returns `false` leaves the
    /// block unchanged.
    #[test]
    fn local_pass_false_means_unchanged_on_generated_programs(seed in any::<u64>()) {
        let f = generate(seed, &GenConfig::default());
        let checked = unchanged_when_false(&f);
        prop_assert!(checked.is_ok(), "seed {}: {:?}", seed, checked);
    }
}

/// The same invariant on the blocks (IUPO) formation produces: large,
/// predicated hyperblocks, the blocks the per-commit optimizer re-scans.
#[test]
fn local_pass_false_means_unchanged_on_formed_blocks() {
    for f in formation_outputs() {
        unchanged_when_false(&f).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// `f` with every block's clean mask cleared and nothing else changed.
fn cold_copy(f: &Function) -> Function {
    let mut cold = f.clone();
    let ids: Vec<_> = cold.block_ids().collect();
    for b in ids {
        cold.block_mut(b);
    }
    cold
}

/// Print → parse → print: the parser numbers blocks densely in print
/// order, so this renames blocks consistently and changes nothing else.
fn normalized(f: &Function) -> String {
    parse_function(&f.to_string())
        .expect("printer output parses")
        .to_string()
}

/// After formation `f` carries a warm clean mask. Both optimizers must
/// print identically whether they start from `f`, from a copy whose masks
/// were cleared, or from `parse(print(f))`, whose masks are cold too. The
/// parser renumbers blocks densely, so that last comparison is made after
/// the same renumbering of the warm result.
#[test]
fn warm_and_cold_masks_optimize_identically() {
    for f in formation_outputs() {
        let reparsed = parse_function(&f.to_string()).expect("printer output parses");
        for (label, opt) in [
            ("optimize_quick", optimize_quick as fn(&mut Function)),
            ("optimize", optimize),
        ] {
            let mut warm = f.clone();
            let mut cold = cold_copy(&f);
            let mut parsed = reparsed.clone();
            opt(&mut warm);
            opt(&mut cold);
            opt(&mut parsed);
            assert_eq!(warm.to_string(), cold.to_string(), "{}: {label}", f.name);
            assert_eq!(
                normalized(&warm),
                normalized(&parsed),
                "{}: {label}, reparsed",
                f.name
            );
        }
    }
}
