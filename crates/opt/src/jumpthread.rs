//! Jump threading: bypass empty forwarding blocks.
//!
//! CFG surgery (duplication, exit deduplication, DCE) can leave blocks that
//! contain no instructions and a single unconditional exit. Threading their
//! predecessors directly to the destination removes a dynamic block
//! execution per visit — on TRIPS that is a whole fetch/map/commit round,
//! so this cleanup directly serves the paper's block-count metric.

use crate::Pass;
use chf_ir::block::{Exit, ExitTarget};
use chf_ir::function::Function;
use chf_ir::ids::BlockId;

/// The jump-threading pass.
#[derive(Debug, Default)]
pub struct JumpThread;

/// The forwarding target of `b`, if `b` is an empty unconditional block.
fn forward_target(f: &Function, b: BlockId) -> Option<BlockId> {
    let blk = f.block(b);
    if !blk.insts.is_empty() || blk.exits.len() != 1 {
        return None;
    }
    match blk.exits[0].target {
        ExitTarget::Block(t) if t != b => Some(t),
        _ => None,
    }
}

/// Thread the exits of block `b` past empty forwarding blocks, mutating only
/// `b` itself. Block-scoped entry point for formation's trial optimizer: the
/// forwarders are left in place (they may still have other predecessors, and
/// the trial must not mutate blocks outside its snapshot).
pub fn thread_block_exits(f: &mut Function, b: BlockId) -> bool {
    let targets: Vec<BlockId> = f
        .block(b)
        .exits
        .iter()
        .filter_map(|e| e.target.block())
        .collect();
    let mut resolved: chf_ir::fxhash::FxHashMap<BlockId, BlockId> =
        chf_ir::fxhash::FxHashMap::default();
    for t in targets {
        if resolved.contains_key(&t) {
            continue;
        }
        let mut seen = vec![t];
        let mut cur = t;
        while let Some(n) = forward_target(f, cur) {
            if seen.contains(&n) {
                break; // cycle of empty blocks
            }
            seen.push(n);
            cur = n;
        }
        if cur != t && forward_target(f, t).is_some() {
            resolved.insert(t, cur);
        }
    }
    if resolved.is_empty() {
        return false;
    }
    let mut changed = false;
    for e in &mut f.block_mut(b).exits {
        if let ExitTarget::Block(t) = e.target {
            if let Some(&dst) = resolved.get(&t) {
                e.target = ExitTarget::Block(dst);
                changed = true;
            }
        }
    }
    changed
}

impl Pass for JumpThread {
    fn name(&self) -> &'static str {
        "jumpthread"
    }

    fn run(&mut self, f: &mut Function) -> bool {
        let mut changed = false;
        // Resolve forwarding chains (with a visited set so a cycle of empty
        // blocks does not loop forever).
        let ids: Vec<BlockId> = f.block_ids().collect();
        let mut resolved: chf_ir::fxhash::FxHashMap<BlockId, BlockId> =
            chf_ir::fxhash::FxHashMap::default();
        for &b in &ids {
            let mut seen = vec![b];
            let mut cur = b;
            while let Some(t) = forward_target(f, cur) {
                if seen.contains(&t) {
                    break; // cycle of empty blocks
                }
                seen.push(t);
                cur = t;
            }
            if cur != b && forward_target(f, b).is_some() {
                resolved.insert(b, cur);
            }
        }
        if resolved.is_empty() {
            return false;
        }
        let threads =
            |e: &Exit| matches!(e.target, ExitTarget::Block(t) if resolved.contains_key(&t));
        for &b in &ids {
            // Borrow mutably only a block whose exits change, so every other
            // block keeps its clean mask (see `Function::run_local`).
            if !f.block(b).exits.iter().any(threads) {
                continue;
            }
            for e in &mut f.block_mut(b).exits {
                if let ExitTarget::Block(t) = e.target {
                    if let Some(&dst) = resolved.get(&t) {
                        // Do not thread a block into itself via its own
                        // forwarding (b might be the forwarder).
                        e.target = ExitTarget::Block(dst);
                        changed = true;
                    }
                }
            }
        }
        if changed {
            // Entry may itself forward; keep it (it cannot be removed), but
            // drop newly unreachable forwarders.
            chf_ir::cfg::remove_unreachable(f);
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::Operand;
    use chf_ir::verify::verify;

    #[test]
    fn threads_through_empty_block() {
        // e -> fwd -> target
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let fwd = fb.create_block();
        let target = fb.create_block();
        fb.switch_to(e);
        let x = fb.add(Operand::Reg(fb.param(0)), Operand::Imm(1));
        fb.jump(fwd);
        fb.switch_to(fwd);
        fb.jump(target);
        fb.switch_to(target);
        fb.ret(Some(Operand::Reg(x)));
        let mut f = fb.build().unwrap();
        assert!(JumpThread.run(&mut f));
        verify(&f).unwrap();
        assert!(!f.contains_block(fwd), "forwarder should be removed");
        assert!(f.block(e).successors().any(|s| s == target));
    }

    #[test]
    fn threads_chains() {
        let mut fb = FunctionBuilder::new("f", 0);
        let e = fb.create_block();
        let f1 = fb.create_block();
        let f2 = fb.create_block();
        let t = fb.create_block();
        fb.switch_to(e);
        fb.jump(f1);
        fb.switch_to(f1);
        fb.jump(f2);
        fb.switch_to(f2);
        fb.jump(t);
        fb.switch_to(t);
        fb.ret(None);
        let mut f = fb.build().unwrap();
        assert!(JumpThread.run(&mut f));
        assert_eq!(f.block_count(), 2);
        assert!(f.block(e).successors().any(|s| s == t));
    }

    #[test]
    fn leaves_nonempty_blocks_alone() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let mid = fb.create_block();
        let t = fb.create_block();
        fb.switch_to(e);
        fb.jump(mid);
        fb.switch_to(mid);
        let x = fb.add(Operand::Reg(fb.param(0)), Operand::Imm(1));
        let _ = x;
        fb.jump(t);
        fb.switch_to(t);
        fb.ret(None);
        let mut f = fb.build().unwrap();
        assert!(!JumpThread.run(&mut f));
        assert_eq!(f.block_count(), 3);
    }

    #[test]
    fn tolerates_empty_cycles() {
        // Two empty blocks jumping at each other (an infinite loop the
        // program may never reach) must not hang the pass.
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let a = fb.create_block();
        let b = fb.create_block();
        let out = fb.create_block();
        fb.switch_to(e);
        let c = fb.cmp_gt(Operand::Reg(fb.param(0)), Operand::Imm(0));
        fb.branch(c, out, a);
        fb.switch_to(a);
        fb.jump(b);
        fb.switch_to(b);
        fb.jump(a);
        fb.switch_to(out);
        fb.ret(None);
        let mut f = fb.build().unwrap();
        JumpThread.run(&mut f); // must terminate
        verify(&f).unwrap();
    }

    #[test]
    fn reduces_dynamic_block_counts() {
        use chf_sim::functional::{run, RunConfig};
        let mut fb = FunctionBuilder::new("f", 0);
        let e = fb.create_block();
        let h = fb.create_block();
        let fwd = fb.create_block();
        let body = fb.create_block();
        let x = fb.create_block();
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp_lt(Operand::Reg(i), Operand::Imm(50));
        fb.branch(c, fwd, x);
        fb.switch_to(fwd);
        fb.jump(body);
        fb.switch_to(body);
        let i2 = fb.add(Operand::Reg(i), Operand::Imm(1));
        fb.mov_to(i, Operand::Reg(i2));
        fb.jump(h);
        fb.switch_to(x);
        fb.ret(Some(Operand::Reg(i)));
        let mut f = fb.build().unwrap();
        let before = run(&f, &[], &[], &RunConfig::default()).unwrap();
        assert!(JumpThread.run(&mut f));
        let after = run(&f, &[], &[], &RunConfig::default()).unwrap();
        assert_eq!(before.digest(), after.digest());
        assert!(after.blocks_executed + 50 <= before.blocks_executed);
    }

    #[test]
    fn behaviour_preserved_on_random_programs() {
        crate::testutil::assert_preserves_behaviour(
            |f| {
                JumpThread.run(f);
            },
            0..40,
        );
    }
}
