//! Differential oracle for the event-driven rewrite: the new engines must
//! agree with the retained legacy cores *exactly* — cycle-for-cycle on the
//! timing side, bit-for-bit on the functional side — over generated
//! programs, the full microbenchmark suite, all memory orderings, corrupted
//! IR, and fuel exhaustion.
//!
//! Any divergence here is a bug in the rewrite, never a "new behaviour".

use super::{run_legacy, simulate_timing_legacy};
use crate::functional::{run, RunConfig, SimError};
use crate::timing::{simulate_timing, MemoryOrdering, TimingConfig, TimingResult};
use chf_core::pipeline::{compile, CompileConfig};
use chf_ir::function::Function;
use chf_ir::ids::{BlockId, Reg};
use chf_ir::instr::Operand;
use chf_ir::testgen::{generate, GenConfig};
use proptest::prelude::*;

const ORDERINGS: [MemoryOrdering; 3] = [
    MemoryOrdering::Exact,
    MemoryOrdering::Conservative,
    MemoryOrdering::Oracle,
];

/// Assert every observable field of two timing results is identical.
fn assert_timing_eq(f: &Function, ordering: MemoryOrdering, ev: &TimingResult, lg: &TimingResult) {
    let ctx = format!("fn {:?}, ordering {ordering:?}", f.name);
    assert_eq!(ev.cycles, lg.cycles, "cycles diverged: {ctx}");
    assert_eq!(ev.blocks_executed, lg.blocks_executed, "blocks: {ctx}");
    assert_eq!(ev.predictions, lg.predictions, "predictions: {ctx}");
    assert_eq!(
        ev.mispredictions, lg.mispredictions,
        "mispredictions: {ctx}"
    );
    assert_eq!(ev.insts_executed, lg.insts_executed, "executed: {ctx}");
    assert_eq!(ev.insts_nullified, lg.insts_nullified, "nullified: {ctx}");
    assert_eq!(ev.insts_fetched, lg.insts_fetched, "fetched: {ctx}");
    assert_eq!(ev.ret, lg.ret, "ret: {ctx}");
    assert_eq!(ev.digest(), lg.digest(), "memory digest: {ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Event-driven timing is cycle-identical to the legacy core on every
    /// generated program, under all three memory-ordering models.
    #[test]
    fn timing_event_matches_legacy(
        seed in any::<u64>(),
        a in -100i64..100,
        b in -100i64..100,
    ) {
        let f = generate(seed, &GenConfig::default());
        for ordering in ORDERINGS {
            let cfg = TimingConfig { memory_ordering: ordering, ..TimingConfig::trips() };
            let ev = simulate_timing(&f, &[a, b], &[], &cfg);
            let lg = simulate_timing_legacy(&f, &[a, b], &[], &cfg);
            match (ev, lg) {
                (Ok(ev), Ok(lg)) => assert_timing_eq(&f, ordering, &ev, &lg),
                (ev, lg) => prop_assert_eq!(ev.err(), lg.err()),
            }
        }
    }

    /// The lowered functional interpreter reproduces the legacy run loop
    /// bit-for-bit, including the full execution profile.
    #[test]
    fn functional_event_matches_legacy(
        seed in any::<u64>(),
        a in -100i64..100,
        b in -100i64..100,
    ) {
        let cfg = RunConfig::default();
        let f = generate(seed, &GenConfig::default());
        let ev = run(&f, &[a, b], &[], &cfg).unwrap();
        let lg = run_legacy(&f, &[a, b], &[], &cfg).unwrap();
        prop_assert_eq!(ev.digest(), lg.digest());
        prop_assert_eq!(ev.blocks_executed, lg.blocks_executed);
        prop_assert_eq!(ev.insts_executed, lg.insts_executed);
        prop_assert_eq!(ev.insts_fetched, lg.insts_fetched);
        // ProfileData has no PartialEq; compare each map.
        prop_assert_eq!(&ev.profile.block_counts, &lg.profile.block_counts);
        prop_assert_eq!(&ev.profile.exit_counts, &lg.profile.exit_counts);
        prop_assert_eq!(&ev.profile.trip_histograms, &lg.profile.trip_histograms);
    }

    /// Fuel exhaustion carries the same payload through both engines.
    #[test]
    fn fuel_exhaustion_agrees(seed in any::<u64>()) {
        let full = {
            let f = generate(seed, &GenConfig::default());
            run(&f, &[3, 7], &[], &RunConfig::default()).unwrap()
        };
        if full.blocks_executed < 4 {
            return Ok(());
        }
        let budget = full.blocks_executed / 2;
        let f = generate(seed, &GenConfig::default());
        let rc = RunConfig { max_blocks: budget, ..RunConfig::default() };
        let tc = TimingConfig { max_blocks: budget, ..TimingConfig::trips() };
        prop_assert_eq!(
            run(&f, &[3, 7], &[], &rc).err(),
            run_legacy(&f, &[3, 7], &[], &rc).err()
        );
        prop_assert_eq!(
            simulate_timing(&f, &[3, 7], &[], &tc).err(),
            simulate_timing_legacy(&f, &[3, 7], &[], &tc).err()
        );
    }
}

/// A small program with a data-dependent loop, for the corruption cases:
/// `i = r0; do { mem[i] = i; i -= 1 } while i > 0; return r0`.
fn looped() -> Function {
    use chf_ir::builder::FunctionBuilder;
    let mut fb = FunctionBuilder::new("diff-loop", 2);
    let entry = fb.create_block();
    let body = fb.create_block();
    let done = fb.create_block();
    fb.switch_to(entry);
    let i = fb.add(Operand::Reg(Reg(0)), Operand::Imm(0));
    fb.jump(body);
    fb.switch_to(body);
    fb.store(Operand::Reg(i), Operand::Reg(i));
    let t = fb.sub(Operand::Reg(i), Operand::Imm(1));
    fb.mov_to(i, Operand::Reg(t));
    let z = fb.cmp_le(Operand::Reg(i), Operand::Imm(0));
    fb.branch(z, done, body);
    fb.switch_to(done);
    fb.ret(Some(Operand::Reg(Reg(0))));
    fb.build().unwrap()
}

/// Corrupted programs (the chaos suite's bread and butter) must surface the
/// *same* lazy error, at the same point, from old and new engines.
#[test]
fn corrupted_ir_errors_agree() {
    type Corrupt = fn(&mut Function);
    let cases: [(&str, Corrupt); 4] = [
        ("oor-operand", |f| {
            let e = f.entry;
            f.block_mut(e).insts[0].a = Some(Operand::Reg(Reg(999)));
        }),
        ("missing-operand", |f| {
            let e = f.entry;
            f.block_mut(e).insts[0].a = None;
        }),
        ("dangling-exit", |f| {
            let e = f.entry;
            f.block_mut(e).exits.clear();
            f.block_mut(e)
                .exits
                .push(chf_ir::block::Exit::jump(BlockId(77)));
        }),
        ("oor-return", |f| {
            let e = f.entry;
            f.block_mut(e).exits.clear();
            f.block_mut(e)
                .exits
                .push(chf_ir::block::Exit::ret(Some(Operand::Reg(Reg(4444)))));
        }),
    ];
    for (name, corrupt) in cases {
        let mut f = looped();
        corrupt(&mut f);
        // Trip-count collection is off here: the legacy engine runs
        // `LoopForest::of` eagerly, which is not total over dangling exits
        // (it panics), whereas the lowered `TripInfo` tolerates them. The
        // comparison below is about *execution* semantics.
        let rc = RunConfig {
            collect_trip_counts: false,
            ..RunConfig::default()
        };
        let tc = TimingConfig::trips();
        for args in [[0i64, 0], [5, 0]] {
            let ev_f = run(&f, &args, &[], &rc);
            let lg_f = run_legacy(&f, &args, &[], &rc);
            assert_eq!(
                ev_f.as_ref().err(),
                lg_f.as_ref().err(),
                "functional error mismatch: {name} args {args:?}"
            );
            if let (Ok(ev), Ok(lg)) = (&ev_f, &lg_f) {
                assert_eq!(ev.digest(), lg.digest(), "{name} args {args:?}");
            }
            let ev_t = simulate_timing(&f, &args, &[], &tc);
            let lg_t = simulate_timing_legacy(&f, &args, &[], &tc);
            match (ev_t, lg_t) {
                (Ok(ev), Ok(lg)) => assert_timing_eq(&f, tc.memory_ordering, &ev, &lg),
                (ev, lg) => assert_eq!(
                    ev.err(),
                    lg.err(),
                    "timing error mismatch: {name} args {args:?}"
                ),
            }
        }
    }
}

/// Errors discard all state: only the error value is observable, and it
/// matches across engines for a program that runs out of fuel mid-loop.
#[test]
fn out_of_fuel_payload_matches() {
    let f = looped();
    let rc = RunConfig {
        max_blocks: 3,
        ..RunConfig::default()
    };
    let tc = TimingConfig {
        max_blocks: 3,
        ..TimingConfig::trips()
    };
    let ev = run(&f, &[100, 0], &[], &rc).unwrap_err();
    let lg = run_legacy(&f, &[100, 0], &[], &rc).unwrap_err();
    assert_eq!(ev, lg);
    assert!(matches!(ev, SimError::OutOfFuel { executed: 3 }));
    assert_eq!(
        simulate_timing(&f, &[100, 0], &[], &tc).unwrap_err(),
        simulate_timing_legacy(&f, &[100, 0], &[], &tc).unwrap_err()
    );
}

/// The golden cycle capture must also be what the legacy core computes:
/// this pins old and new engines to the same numbers on real workloads —
/// every microbenchmark, basic-block and compiled form, under every memory
/// ordering — rather than on generated programs.
#[test]
fn event_core_matches_legacy_on_full_suite() {
    for w in chf_workloads::microbenchmarks() {
        let compiled = compile(&w.function, &w.profile, &CompileConfig::default());
        for (form, f) in [("bb", &w.function), ("hb", &compiled.function)] {
            for ordering in ORDERINGS {
                let cfg = TimingConfig {
                    memory_ordering: ordering,
                    ..TimingConfig::trips()
                };
                let ev = simulate_timing(f, &w.args, &w.memory, &cfg).unwrap();
                let lg = simulate_timing_legacy(f, &w.args, &w.memory, &cfg).unwrap();
                let ctx = format!("{} {form} {ordering:?}", w.name);
                assert_eq!(ev.cycles, lg.cycles, "{ctx}");
                assert_eq!(ev.mispredictions, lg.mispredictions, "{ctx}");
                assert_eq!(ev.insts_executed, lg.insts_executed, "{ctx}");
                assert_eq!(ev.digest(), lg.digest(), "{ctx}");
            }
        }
    }
}
