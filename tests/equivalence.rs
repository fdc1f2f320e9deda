//! End-to-end correctness: every workload, compiled under every phase
//! ordering and policy, must preserve observable behaviour on both
//! simulators, satisfy the structural constraints, and verify.
//!
//! Formation is profile-guided, so behaviour is also checked away from the
//! training input: on seeded held-out memory images that keep the training
//! image's addresses and perturb its values.

use chf::core::constraints::BlockConstraints;
use chf::core::pipeline::{compile, CompileConfig, PhaseOrdering};
use chf::core::PolicyKind;
use chf::ir::function::Function;
use chf::ir::testgen::SplitMix64;
use chf::ir::verify::verify;
use chf::sim::functional::{run, RunConfig};
use chf::sim::timing::{simulate_timing, TimingConfig};
use chf::workloads::Workload;

/// Held-out memory images per workload.
const HELD_OUT_IMAGES: u64 = 3;

/// Held-out image `image` of `w`: the training image's addresses, each
/// value moved by a SplitMix64-seeded offset of up to half its magnitude
/// plus 4.
fn held_out_memory(w: &Workload, image: u64) -> Vec<(i64, i64)> {
    let seed = w
        .name
        .bytes()
        .fold(image, |h, b| (h << 5) ^ (h >> 59) ^ u64::from(b));
    let mut rng = SplitMix64::new(seed);
    w.memory
        .iter()
        .map(|&(addr, v)| {
            let span = v.unsigned_abs() / 2 + 4;
            let offset = rng.below(2 * span + 1) as i64 - span as i64;
            (addr, v + offset)
        })
        .collect()
}

/// The held-out images of `w` on which the uncompiled program runs to
/// completion on both simulators, with its (functional, timing) digests.
/// Images whose original run errors (a perturbed value can drive a load
/// out of range or a loop past the fuel budget) are skipped; a workload
/// that keeps none fails, so every workload is checked off its training
/// input.
fn held_out_baselines(w: &Workload) -> Vec<(Vec<(i64, i64)>, Digests)> {
    let kept: Vec<_> = (1..=HELD_OUT_IMAGES)
        .filter_map(|image| {
            let memory = held_out_memory(w, image);
            digests(&w.function, &w.args, &memory).map(|d| (memory, d))
        })
        .collect();
    assert!(!kept.is_empty(), "{}: every held-out image errored", w.name);
    kept
}

/// Functional and timing observable-behaviour digests of one run.
type Digests = [(Option<i64>, Vec<(i64, i64)>); 2];

fn digests(f: &Function, args: &[i64], memory: &[(i64, i64)]) -> Option<Digests> {
    let fr = run(f, args, memory, &RunConfig::default()).ok()?;
    let tr = simulate_timing(f, args, memory, &TimingConfig::trips()).ok()?;
    Some([fr.digest(), tr.digest()])
}

/// `compiled` reproduces the original's digests on every held-out image.
fn assert_held_out_equivalent(
    w: &Workload,
    held_out: &[(Vec<(i64, i64)>, Digests)],
    compiled: &Function,
    label: &str,
) {
    for (memory, expected) in held_out {
        let got = digests(compiled, &w.args, memory)
            .unwrap_or_else(|| panic!("{} under {label}: held-out run errored", w.name));
        assert_eq!(
            &got, expected,
            "{} under {label}: held-out behaviour changed",
            w.name
        );
    }
}

fn all_orderings() -> [PhaseOrdering; 5] {
    [
        PhaseOrdering::BasicBlocks,
        PhaseOrdering::Upio,
        PhaseOrdering::Iupo,
        PhaseOrdering::IupThenO,
        PhaseOrdering::Iupo_,
    ]
}

#[test]
fn all_microbenchmarks_all_orderings_preserve_behaviour() {
    for w in chf::workloads::microbenchmarks() {
        let base = run(&w.function, &w.args, &w.memory, &RunConfig::default()).unwrap();
        assert_eq!(base.ret, Some(w.expected), "{} baseline", w.name);
        let held_out = held_out_baselines(&w);
        for ordering in all_orderings() {
            let c = compile(
                &w.function,
                &w.profile,
                &CompileConfig::with_ordering(ordering),
            );
            verify(&c.function).unwrap_or_else(|e| panic!("{} {}: {e}", w.name, ordering.label()));
            let r = run(&c.function, &w.args, &w.memory, &RunConfig::default()).unwrap();
            assert_eq!(
                r.digest(),
                base.digest(),
                "{} under {} changed behaviour",
                w.name,
                ordering.label()
            );
            assert_held_out_equivalent(&w, &held_out, &c.function, ordering.label());
        }
    }
}

#[test]
fn all_microbenchmarks_all_policies_preserve_behaviour() {
    for w in chf::workloads::microbenchmarks() {
        let base = run(&w.function, &w.args, &w.memory, &RunConfig::default()).unwrap();
        for policy in [
            PolicyKind::BreadthFirst,
            PolicyKind::DepthFirst,
            PolicyKind::Vliw,
        ] {
            for iterative in [false, true] {
                let c = compile(
                    &w.function,
                    &w.profile,
                    &CompileConfig::with_policy(policy, iterative),
                );
                verify(&c.function).unwrap_or_else(|e| panic!("{} {policy:?}: {e}", w.name));
                let r = run(&c.function, &w.args, &w.memory, &RunConfig::default()).unwrap();
                assert_eq!(
                    r.digest(),
                    base.digest(),
                    "{} under {policy:?}/{iterative} changed behaviour",
                    w.name
                );
            }
        }
    }
}

#[test]
fn spec_composites_convergent_preserves_behaviour() {
    for w in chf::workloads::spec_suite() {
        let base = run(&w.function, &w.args, &w.memory, &RunConfig::default()).unwrap();
        let c = compile(&w.function, &w.profile, &CompileConfig::convergent());
        verify(&c.function).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let r = run(&c.function, &w.args, &w.memory, &RunConfig::default()).unwrap();
        assert_eq!(r.digest(), base.digest(), "{} miscompiled", w.name);
        assert_held_out_equivalent(&w, &held_out_baselines(&w), &c.function, "(IUPO)");
    }
}

#[test]
fn timing_simulator_agrees_with_functional_on_compiled_code() {
    for w in chf::workloads::microbenchmarks() {
        let c = compile(&w.function, &w.profile, &CompileConfig::convergent());
        let fr = run(&c.function, &w.args, &w.memory, &RunConfig::default()).unwrap();
        let tr = simulate_timing(&c.function, &w.args, &w.memory, &TimingConfig::trips()).unwrap();
        assert_eq!(fr.digest(), tr.digest(), "{}", w.name);
        assert_eq!(fr.blocks_executed, tr.blocks_executed, "{}", w.name);
    }
}

#[test]
fn compiled_blocks_respect_trips_constraints() {
    let constraints = BlockConstraints::trips();
    for w in chf::workloads::microbenchmarks() {
        for ordering in all_orderings() {
            let c = compile(
                &w.function,
                &w.profile,
                &CompileConfig::with_ordering(ordering),
            );
            // Size and memory constraints must hold everywhere; register
            // constraints are best-effort after splitting (see §6), so only
            // check the hard structural ones here.
            for (b, blk) in c.function.blocks() {
                assert!(
                    blk.size() <= constraints.max_insts,
                    "{} {}: block {b} has {} slots",
                    w.name,
                    ordering.label(),
                    blk.size()
                );
                assert!(
                    blk.memory_ops() <= constraints.max_memory_ops,
                    "{} {}: block {b} has {} memory ops",
                    w.name,
                    ordering.label(),
                    blk.memory_ops()
                );
            }
        }
    }
}

#[test]
fn generated_programs_survive_full_pipeline() {
    use chf::ir::testgen::{generate, GenConfig};
    use chf::sim::functional::profile_run;
    let cfg = GenConfig::default();
    for seed in 100..140 {
        let f = generate(seed, &cfg);
        let profile = profile_run(&f, &[5, 9], &[]).unwrap();
        for ordering in all_orderings() {
            let c = compile(&f, &profile, &CompileConfig::with_ordering(ordering));
            verify(&c.function).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for args in [[5, 9], [0, 0], [-3, 77]] {
                let base = run(&f, &args, &[], &RunConfig::default()).unwrap();
                let r = run(&c.function, &args, &[], &RunConfig::default()).unwrap();
                assert_eq!(
                    r.digest(),
                    base.digest(),
                    "seed {seed} {} args {args:?}",
                    ordering.label()
                );
            }
        }
    }
}
