//! Discrete loop unrolling and peeling — the classical phases that the
//! convergent algorithm replaces (paper §3, §7.1).
//!
//! Two variants, matching the two classical phase orderings of Table 1:
//!
//! * [`cfg_unroll_and_peel`] — **UPIO's `UP`**: operates on the basic-block
//!   CFG *before* if-conversion. It must pick unroll factors from
//!   basic-block sizes, i.e. from inaccurate estimates of the eventual
//!   hyperblock sizes — the phase-ordering handicap the paper describes.
//! * [`hyperblock_unroll_peel`] — **IUPO's `UP`**: operates *after*
//!   if-conversion on loops whose body has collapsed into a single
//!   hyperblock, replicating the predicated body inside the block (Mahlke's
//!   hyperblock loop unrolling). Size estimates are now accurate, but the
//!   phase runs once: it cannot interleave with further if-conversion or
//!   scalar optimization the way convergent formation can.
//!
//! Peel factors come from the profile's loop trip-count histograms (§5,
//! "Loop peeling and unrolling").

use crate::constraints::BlockConstraints;
use chf_ir::block::ExitTarget;
use chf_ir::function::Function;
use chf_ir::ids::BlockId;
use chf_ir::loops::LoopForest;
use chf_ir::profile::ProfileData;
use std::collections::HashMap;

/// Knobs for the discrete passes.
#[derive(Clone, Debug)]
pub struct UnrollParams {
    /// Maximum iterations to peel per loop.
    pub max_peel: usize,
    /// Maximum copies of a body per loop (unroll factor − 1).
    pub max_unroll: usize,
    /// Target block size the unroller aims to fill.
    pub target_size: usize,
    /// Only peel when at least this fraction of loop visits reach the
    /// peeled iteration count.
    pub min_peel_coverage: f64,
}

impl Default for UnrollParams {
    fn default() -> Self {
        UnrollParams {
            max_peel: 3,
            max_unroll: 3,
            target_size: 96,
            min_peel_coverage: 0.5,
        }
    }
}

/// Counts of discrete transformations applied.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct UnrollStats {
    /// Body copies appended inside loops.
    pub unrolls: usize,
    /// Iterations peeled ahead of loops.
    pub peels: usize,
}

/// Copy all blocks of `body`, returning the old→new id map. Intra-body
/// edges are remapped to the copies; edges leaving the body are preserved.
/// Back edges (to `header`) are left pointing at the *original* header; the
/// caller rewires them as peeling or unrolling requires.
fn copy_body(f: &mut Function, body: &[BlockId], header: BlockId) -> HashMap<BlockId, BlockId> {
    let map: HashMap<BlockId, BlockId> = body.iter().map(|&b| (b, f.duplicate_block(b))).collect();
    for (&old, &new) in &map {
        let _ = old;
        let blk = f.block_mut(new);
        for e in &mut blk.exits {
            if let ExitTarget::Block(t) = e.target {
                if t != header {
                    if let Some(&nt) = map.get(&t) {
                        e.target = ExitTarget::Block(nt);
                    }
                }
            }
        }
    }
    map
}

/// Peel one iteration of the loop headed by `header`: the copy runs first,
/// then control enters the original loop.
///
/// Returns `false` (no change) if the header is the function entry or the
/// loop shape is unsuitable.
pub fn peel_one(f: &mut Function, header: BlockId) -> bool {
    let forest = LoopForest::of(f);
    let Some(l) = forest.loop_of_header(header) else {
        return false;
    };
    if header == f.entry {
        return false;
    }
    let body: Vec<BlockId> = {
        let mut v: Vec<BlockId> = l.body.iter().copied().collect();
        v.sort_unstable();
        v
    };
    let entry_preds: Vec<BlockId> = f
        .block_ids()
        .filter(|&p| !l.body.contains(&p) && f.block(p).successors().any(|s| s == header))
        .collect();
    if entry_preds.is_empty() {
        return false;
    }

    let map = copy_body(f, &body, header);
    // Copy back edges (still pointing at the original header) stay: after
    // the peeled iteration the original loop runs. Loop-entry edges are
    // redirected to the copied header.
    let new_header = map[&header];
    for p in entry_preds {
        f.block_mut(p).retarget_exits(header, new_header);
    }
    true
}

/// Append one unrolled iteration to the loop headed by `header`: original
/// back edges go to the body copy, whose back edges return to the original
/// header (Figure 4 generalized to multi-block bodies).
pub fn unroll_one(f: &mut Function, header: BlockId) -> bool {
    let forest = LoopForest::of(f);
    let Some(l) = forest.loop_of_header(header) else {
        return false;
    };
    let body: Vec<BlockId> = {
        let mut v: Vec<BlockId> = l.body.iter().copied().collect();
        v.sort_unstable();
        v
    };
    let latches: Vec<BlockId> = l.back_edges.iter().map(|&(u, _)| u).collect();
    let map = copy_body(f, &body, header);
    let new_header = map[&header];
    for latch in latches {
        f.block_mut(latch).retarget_exits(header, new_header);
    }
    // The copy's back edges already target the original header.
    true
}

/// Static size of a loop body in instruction slots.
fn body_size(f: &Function, body: &chf_ir::fxhash::FxHashSet<BlockId>) -> usize {
    body.iter().map(|&b| f.block(b).size()).sum()
}

/// Decide peel/unroll factors for one loop from its trip histogram and
/// size, mirroring the paper's threshold policy.
fn decide(
    f: &Function,
    header: BlockId,
    body: &chf_ir::fxhash::FxHashSet<BlockId>,
    profile: &ProfileData,
    params: &UnrollParams,
) -> (usize, usize) {
    let size = body_size(f, body).max(1);
    let hist = profile.trip_histogram(header);
    let mut peel = 0usize;
    let mut unroll = 0usize;

    if let Some(h) = hist {
        if let Some(mode) = h.mode() {
            // Low-trip-count loops: peel the common number of iterations.
            // (The header is tested once more than the body runs, so a mode
            // of k header visits means k-1 completed iterations; peeling the
            // mode still covers the test chain.)
            let mode = mode as usize;
            if mode >= 1
                && mode <= params.max_peel
                && h.fraction_at_least(mode as u64) >= params.min_peel_coverage
            {
                peel = mode.min(params.max_peel);
            }
        }
        // High-trip-count loops: unroll to fill the target size.
        if h.mean() >= 8.0 {
            let fit = params.target_size / size;
            unroll = fit.saturating_sub(1).min(params.max_unroll);
        }
    }
    (peel, unroll)
}

/// UPIO's discrete `UP` phase: profile-driven unroll and peel over the
/// basic-block CFG.
pub fn cfg_unroll_and_peel(
    f: &mut Function,
    profile: &ProfileData,
    params: &UnrollParams,
) -> UnrollStats {
    let mut stats = UnrollStats::default();
    // Snapshot headers up front; transformations change the loop forest.
    let headers: Vec<BlockId> = {
        let forest = LoopForest::of(f);
        let mut hs: Vec<(usize, BlockId)> = forest
            .loops
            .iter()
            .map(|l| (forest.depth(l.header), l.header))
            .collect();
        // Innermost first.
        hs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        hs.into_iter().map(|(_, h)| h).collect()
    };

    for header in headers {
        if !f.contains_block(header) {
            continue;
        }
        let forest = LoopForest::of(f);
        let Some(l) = forest.loop_of_header(header) else {
            continue;
        };
        let (peel, unroll) = decide(f, header, &l.body, profile, params);
        for _ in 0..peel {
            if peel_one(f, header) {
                stats.peels += 1;
            }
        }
        for _ in 0..unroll {
            if unroll_one(f, header) {
                stats.unrolls += 1;
            }
        }
    }
    stats
}

/// IUPO's discrete `UP` phase: unroll/peel loops whose body has collapsed
/// into a single hyperblock, replicating the predicated body inside the
/// block via head duplication, with accurate size estimates.
pub fn hyperblock_unroll_peel(
    f: &mut Function,
    profile: &ProfileData,
    constraints: &BlockConstraints,
    params: &UnrollParams,
) -> UnrollStats {
    let mut stats = UnrollStats::default();
    let headers: Vec<BlockId> = {
        let forest = LoopForest::of(f);
        forest
            .loops
            .iter()
            .filter(|l| l.body.len() == 1) // single-hyperblock loops only
            .map(|l| l.header)
            .collect()
    };

    let merge_config = crate::convergent::FormationConfig {
        constraints: constraints.clone(),
        head_duplication: true,
        tail_duplication: true,
        iterative_opt: false,
        trip_aware_unroll: true,
        speculation: true,
        max_tail_dup_size: 24,
        ..crate::convergent::FormationConfig::default()
    };

    for header in headers {
        if !f.contains_block(header) {
            continue;
        }
        let size = f.block(header).size().max(1);
        let budget = constraints.effective_max_insts();
        let fit = (budget / size).saturating_sub(1).min(params.max_unroll);

        // Unroll: append `fit` copies of the (saved) body to the header
        // block, one iteration at a time.
        let saved = f.block(header).clone();
        for _ in 0..fit {
            if !f.block(header).successors().any(|s| s == header) {
                break; // self edge gone (fully unrolled or shape changed)
            }
            match crate::convergent::merge_blocks_with_body(
                f,
                header,
                header,
                &merge_config,
                Some(&saved),
            ) {
                crate::convergent::MergeOutcome::Success(_) => stats.unrolls += 1,
                _ => break,
            }
        }

        // Peel into the (unique, non-loop) predecessor when trip counts are
        // low, merging header copies into it.
        let Some(hist) = profile.trip_histogram(header) else {
            continue;
        };
        let Some(mode) = hist.mode() else { continue };
        let mode = mode as usize;
        if mode == 0
            || mode > params.max_peel
            || hist.fraction_at_least(mode as u64) < params.min_peel_coverage
        {
            continue;
        }
        for _ in 0..mode {
            let preds: Vec<BlockId> = f
                .block_ids()
                .filter(|&p| p != header && f.block(p).successors().any(|s| s == header))
                .collect();
            let [pred] = preds.as_slice() else { break };
            let pred = *pred;
            match crate::convergent::merge_blocks(f, pred, header, &merge_config) {
                crate::convergent::MergeOutcome::Success(_) => stats.peels += 1,
                _ => break,
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::Operand;
    use chf_ir::verify::verify;
    use chf_sim::functional::{profile_run, run, RunConfig};

    fn reg(r: chf_ir::ids::Reg) -> Operand {
        Operand::Reg(r)
    }

    fn digest(f: &Function, args: &[i64]) -> (Option<i64>, Vec<(i64, i64)>) {
        run(f, args, &[], &RunConfig::default()).unwrap().digest()
    }

    /// e -> h; h -> body | exit; body -> h   (while loop, multi-block)
    fn while_loop() -> Function {
        let mut fb = FunctionBuilder::new("wl", 1);
        let e = fb.create_block();
        let h = fb.create_block();
        let body = fb.create_block();
        let exit = fb.create_block();
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        let acc = fb.mov(Operand::Imm(0));
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp_lt(reg(i), reg(fb.param(0)));
        fb.branch(c, body, exit);
        fb.switch_to(body);
        let acc2 = fb.add(reg(acc), reg(i));
        fb.mov_to(acc, reg(acc2));
        let i2 = fb.add(reg(i), Operand::Imm(1));
        fb.mov_to(i, reg(i2));
        fb.jump(h);
        fb.switch_to(exit);
        fb.ret(Some(reg(acc)));
        fb.build().unwrap()
    }

    #[test]
    fn peel_one_preserves_behaviour() {
        let mut f = while_loop();
        let orig = f.clone();
        assert!(peel_one(&mut f, BlockId(1)));
        verify(&f).unwrap();
        assert!(f.block_count() > orig.block_count());
        for a in [0, 1, 2, 5, 10] {
            assert_eq!(digest(&f, &[a]), digest(&orig, &[a]), "arg {a}");
        }
    }

    #[test]
    fn unroll_one_preserves_behaviour() {
        let mut f = while_loop();
        let orig = f.clone();
        assert!(unroll_one(&mut f, BlockId(1)));
        verify(&f).unwrap();
        for a in [0, 1, 2, 5, 11] {
            assert_eq!(digest(&f, &[a]), digest(&orig, &[a]), "arg {a}");
        }
    }

    #[test]
    fn repeated_unroll_is_not_power_of_two_limited() {
        let mut f = while_loop();
        let orig = f.clone();
        assert!(unroll_one(&mut f, BlockId(1)));
        assert!(unroll_one(&mut f, BlockId(1)));
        verify(&f).unwrap();
        // Three bodies in the cycle now.
        for a in [0, 1, 2, 3, 7, 9] {
            assert_eq!(digest(&f, &[a]), digest(&orig, &[a]), "arg {a}");
        }
    }

    #[test]
    fn cfg_pass_uses_profile() {
        let mut f = while_loop();
        // High-trip-count training input: unrolling expected.
        let profile = profile_run(&f, &[50], &[]).unwrap();
        profile.apply(&mut f);
        let orig = f.clone();
        let stats = cfg_unroll_and_peel(&mut f, &profile, &UnrollParams::default());
        verify(&f).unwrap();
        assert!(stats.unrolls > 0, "{stats:?}");
        for a in [0, 3, 50] {
            assert_eq!(digest(&f, &[a]), digest(&orig, &[a]), "arg {a}");
        }
    }

    #[test]
    fn cfg_pass_peels_low_trip_loops() {
        let mut f = while_loop();
        let profile = profile_run(&f, &[2], &[]).unwrap();
        profile.apply(&mut f);
        let stats = cfg_unroll_and_peel(&mut f, &profile, &UnrollParams::default());
        verify(&f).unwrap();
        assert!(stats.peels > 0, "{stats:?}");
    }

    #[test]
    fn hyperblock_unroll_on_self_loop() {
        // Build a self-loop hyperblock directly.
        let mut fb = FunctionBuilder::new("hb", 1);
        let e = fb.create_block();
        let b = fb.create_block();
        let x = fb.create_block();
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        fb.jump(b);
        fb.switch_to(b);
        let i2 = fb.add(reg(i), Operand::Imm(1));
        fb.mov_to(i, reg(i2));
        let c = fb.cmp_lt(reg(i), reg(fb.param(0)));
        fb.branch(c, b, x);
        fb.switch_to(x);
        fb.ret(Some(reg(i)));
        let mut f = fb.build().unwrap();
        let profile = profile_run(&f, &[40], &[]).unwrap();
        profile.apply(&mut f);
        let orig = f.clone();
        let stats = hyperblock_unroll_peel(
            &mut f,
            &profile,
            &BlockConstraints::trips(),
            &UnrollParams::default(),
        );
        verify(&f).unwrap();
        assert!(stats.unrolls >= 1, "{stats:?}");
        for a in [0, 1, 5, 40] {
            assert_eq!(digest(&f, &[a]), digest(&orig, &[a]), "arg {a}");
        }
        // Dynamic blocks per iteration must drop.
        let before = run(&orig, &[40], &[], &RunConfig::default()).unwrap();
        let after = run(&f, &[40], &[], &RunConfig::default()).unwrap();
        assert!(after.blocks_executed < before.blocks_executed);
    }
}
