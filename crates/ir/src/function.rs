//! Functions: the unit of compilation and simulation.

use crate::block::Block;
use crate::ids::{BlockId, Reg};
use std::fmt;

/// A function: a control-flow graph of [`Block`]s with a distinguished entry.
///
/// Registers `r0..r{params}` hold the arguments on entry. Blocks are stored
/// in a slot vector so [`BlockId`]s remain stable when blocks are removed.
///
/// Each block slot also carries a *clean mask* for block-local passes (see
/// [`Function::run_local`]). The mask is a pure cache: it never shows in
/// `Debug`, `Display` or any fingerprint.
#[derive(Clone)]
pub struct Function {
    /// Function name (used in diagnostics and workload tables).
    pub name: String,
    blocks: Vec<Option<Block>>,
    /// One byte per block slot, parallel to `blocks`: bit *k* set means
    /// block-local pass *k* last ran on the slot's current contents and
    /// changed nothing. Every mutable access to a block clears its byte.
    clean: Vec<u8>,
    /// Entry block.
    pub entry: BlockId,
    /// Number of parameters (passed in `r0..params`).
    pub params: u32,
    nregs: u32,
}

impl Function {
    /// Create an empty function with `params` parameters and a fresh, empty
    /// entry block.
    pub fn new(name: impl Into<String>, params: u32) -> Self {
        let mut f = Function {
            name: name.into(),
            blocks: Vec::new(),
            clean: Vec::new(),
            entry: BlockId(0),
            params,
            nregs: params,
        };
        let entry = f.add_block(Block::new());
        f.entry = entry;
        f
    }

    /// Allocate a fresh virtual register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.nregs);
        self.nregs += 1;
        r
    }

    /// Number of virtual registers allocated so far.
    pub fn reg_count(&self) -> u32 {
        self.nregs
    }

    /// Record that registers up to `n` exist (used when splicing in code
    /// that was built against a larger register space).
    pub fn ensure_regs(&mut self, n: u32) {
        self.nregs = self.nregs.max(n);
    }

    /// Add a block, returning its id.
    pub fn add_block(&mut self, block: Block) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Some(block));
        self.clean.push(0);
        id
    }

    /// Remove a block. Its id becomes a hole; edges into it become dangling
    /// (the caller must have retargeted them).
    ///
    /// # Panics
    /// Panics if `id` is the entry block or already removed.
    pub fn remove_block(&mut self, id: BlockId) {
        assert_ne!(id, self.entry, "cannot remove the entry block");
        let slot = &mut self.blocks[id.index()];
        assert!(slot.is_some(), "block {id} already removed");
        *slot = None;
        self.clean[id.index()] = 0;
    }

    /// Whether `id` refers to a live (not removed) block.
    pub fn contains_block(&self, id: BlockId) -> bool {
        self.blocks
            .get(id.index())
            .map(|s| s.is_some())
            .unwrap_or(false)
    }

    /// Borrow a block.
    ///
    /// # Panics
    /// Panics if the block was removed or never existed.
    pub fn block(&self, id: BlockId) -> &Block {
        self.blocks[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("block {id} does not exist"))
    }

    /// Mutably borrow a block.
    ///
    /// # Panics
    /// Panics if the block was removed or never existed.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        self.clean[id.index()] = 0;
        self.blocks[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("block {id} does not exist"))
    }

    /// Run the block-local pass `pass` over block `id` unless bit `bit` of
    /// the block's clean mask records that it already ran on these exact
    /// contents and returned `false`. A pass that is a deterministic
    /// function of the block and changes nothing whenever it returns
    /// `false` would return `false` again, so the skip is exact.
    ///
    /// On `false` the bit is set; on `true` the whole mask is cleared,
    /// since every other pass's verdict was about the old contents.
    /// Returns what the pass returned, or `false` when it was skipped.
    ///
    /// # Panics
    /// Panics if `bit >= 8` or the block was removed or never existed.
    pub fn run_local(&mut self, id: BlockId, bit: u32, pass: fn(&mut Block) -> bool) -> bool {
        assert!(bit < u8::BITS, "clean-mask bit {bit} out of range");
        let flag = 1u8 << bit;
        let i = id.index();
        if self.clean[i] & flag != 0 {
            return false;
        }
        let blk = self.blocks[i]
            .as_mut()
            .unwrap_or_else(|| panic!("block {id} does not exist"));
        let changed = pass(blk);
        self.clean[i] = if changed { 0 } else { self.clean[i] | flag };
        changed
    }

    /// Borrow a block if it exists.
    pub fn try_block(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Iterate over live block ids in id order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| BlockId(i as u32))
    }

    /// Iterate over `(id, block)` pairs in id order.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|b| (BlockId(i as u32), b)))
    }

    /// Number of live blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.iter().filter(|s| s.is_some()).count()
    }

    /// Number of block *slots* (live blocks plus holes): one more than the
    /// largest id ever allocated. Dense per-slot side tables (liveness,
    /// dominators) index by `BlockId::index()` bounded by this.
    pub fn block_slots(&self) -> usize {
        self.blocks.len()
    }

    /// Total static instruction count (including exits, which occupy branch
    /// slots on TRIPS).
    pub fn static_size(&self) -> usize {
        self.blocks().map(|(_, b)| b.size()).sum()
    }

    /// Duplicate block `id`, returning the id of the copy. The copy shares
    /// registers with the original (no SSA); callers performing tail or head
    /// duplication rely on only one copy executing per dynamic path, or on
    /// sequential in-block ordering for unrolled copies.
    pub fn duplicate_block(&mut self, id: BlockId) -> BlockId {
        let mut copy = self.block(id).clone();
        if let Some(n) = &copy.name {
            copy.name = Some(format!("{n}'"));
        }
        copy.freq = 0.0;
        self.add_block(copy)
    }

    /// Capture a block-scoped snapshot sufficient to undo a transformation
    /// that (a) mutates or removes only the listed blocks, (b) appends new
    /// blocks, and (c) allocates fresh registers. Used by the convergent
    /// formation loop to run merge trials *in place* instead of cloning the
    /// whole function per trial; see [`Function::restore_blocks`].
    ///
    /// Duplicate ids in `ids` are saved once.
    pub fn snapshot_blocks<I>(&self, ids: I) -> BlocksSnapshot
    where
        I: IntoIterator<Item = BlockId>,
    {
        let mut saved: Vec<(BlockId, Option<Block>, u8)> = Vec::new();
        for id in ids {
            if saved.iter().any(|(i, _, _)| *i == id) {
                continue;
            }
            let i = id.index();
            saved.push((
                id,
                self.blocks.get(i).cloned().flatten(),
                self.clean.get(i).copied().unwrap_or(0),
            ));
        }
        BlocksSnapshot {
            saved,
            len: self.blocks.len(),
            nregs: self.nregs,
        }
    }

    /// Roll back to a snapshot taken by [`Function::snapshot_blocks`]:
    /// blocks added since the snapshot are dropped, the saved blocks are
    /// restored verbatim (including removal state), and the register count
    /// is rewound so register numbering in later trials is unaffected by
    /// rolled-back ones. Restored blocks get back their clean masks too,
    /// since their contents are again exactly the snapshotted ones.
    ///
    /// The caller guarantees that no block *outside* the snapshot was
    /// mutated since the snapshot was taken; this is what makes the restore
    /// an exact inverse.
    pub fn restore_blocks(&mut self, snap: BlocksSnapshot) {
        debug_assert!(
            self.blocks.len() >= snap.len,
            "snapshot outlived a structural change it cannot undo"
        );
        self.blocks.truncate(snap.len);
        self.clean.truncate(snap.len);
        for (id, blk, clean) in snap.saved {
            self.blocks[id.index()] = blk;
            self.clean[id.index()] = clean;
        }
        self.nregs = snap.nregs;
    }
}

/// `Debug` lists everything but the clean masks, which are a cache and not
/// part of the function.
impl fmt::Debug for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Function")
            .field("name", &self.name)
            .field("blocks", &self.blocks)
            .field("entry", &self.entry)
            .field("params", &self.params)
            .field("nregs", &self.nregs)
            .finish()
    }
}

/// An undo record for a block-scoped trial transformation; created by
/// [`Function::snapshot_blocks`], consumed by [`Function::restore_blocks`].
#[derive(Clone, Debug)]
pub struct BlocksSnapshot {
    /// Saved `(id, slot, clean mask)` triples — a `None` slot marks a
    /// block that was already removed when the snapshot was taken.
    saved: Vec<(BlockId, Option<Block>, u8)>,
    /// Length of the block slot vector at snapshot time; later additions
    /// are truncated away on restore.
    len: usize,
    /// Register count at snapshot time.
    nregs: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Exit;
    use crate::instr::{Instr, Operand};

    #[test]
    fn new_function_has_entry() {
        let f = Function::new("f", 2);
        assert_eq!(f.block_count(), 1);
        assert!(f.contains_block(f.entry));
        assert_eq!(f.reg_count(), 2);
    }

    #[test]
    fn register_allocation_is_monotonic() {
        let mut f = Function::new("f", 1);
        let a = f.new_reg();
        let b = f.new_reg();
        assert!(a < b);
        assert_eq!(f.reg_count(), 3);
        f.ensure_regs(10);
        assert_eq!(f.reg_count(), 10);
        f.ensure_regs(5);
        assert_eq!(f.reg_count(), 10);
    }

    #[test]
    fn remove_leaves_stable_ids() {
        let mut f = Function::new("f", 0);
        let b1 = f.add_block(Block::new());
        let b2 = f.add_block(Block::new());
        f.remove_block(b1);
        assert!(!f.contains_block(b1));
        assert!(f.contains_block(b2));
        assert_eq!(f.block_ids().collect::<Vec<_>>(), vec![f.entry, b2]);
    }

    #[test]
    #[should_panic(expected = "cannot remove the entry block")]
    fn removing_entry_panics() {
        let mut f = Function::new("f", 0);
        let entry = f.entry;
        f.remove_block(entry);
    }

    #[test]
    fn duplicate_block_copies_contents() {
        let mut f = Function::new("f", 0);
        let r = f.new_reg();
        let b = f.add_block(Block::new());
        f.block_mut(b).name = Some("L".into());
        f.block_mut(b).insts.push(Instr::mov(r, Operand::Imm(3)));
        f.block_mut(b).exits.push(Exit::ret(None));
        let c = f.duplicate_block(b);
        assert_eq!(f.block(c).insts, f.block(b).insts);
        assert_eq!(f.block(c).name.as_deref(), Some("L'"));
        assert_eq!(f.block(c).freq, 0.0);
    }

    #[test]
    fn snapshot_restores_mutation_removal_addition_and_regs() {
        let mut f = Function::new("f", 1);
        let e = f.entry;
        let b = f.add_block(Block::new());
        f.block_mut(b).exits.push(Exit::ret(None));
        let r = f.new_reg();
        f.block_mut(e).insts.push(Instr::mov(r, Operand::Imm(1)));
        let before = format!("{f:?}");
        let nregs = f.reg_count();

        let snap = f.snapshot_blocks([e, b, b]); // duplicate id: saved once
                                                 // Mutate e, remove b, add a block, allocate registers.
        let r2 = f.new_reg();
        f.block_mut(e).insts.push(Instr::mov(r2, Operand::Imm(2)));
        f.remove_block(b);
        let added = f.add_block(Block::new());
        assert!(f.contains_block(added));

        f.restore_blocks(snap);
        assert_eq!(format!("{f:?}"), before);
        assert_eq!(f.reg_count(), nregs);
        assert!(f.contains_block(b));
        assert!(!f.contains_block(added));
    }

    #[test]
    fn snapshot_restore_is_noop_without_changes() {
        let mut f = Function::new("f", 2);
        let e = f.entry;
        f.block_mut(e).exits.push(Exit::ret(None));
        let before = format!("{f:?}");
        let snap = f.snapshot_blocks([e]);
        f.restore_blocks(snap);
        assert_eq!(format!("{f:?}"), before);
    }

    fn unchanged(_: &mut Block) -> bool {
        false
    }

    fn grows(b: &mut Block) -> bool {
        b.insts.push(Instr::mov(Reg(0), Operand::Imm(0)));
        true
    }

    fn must_be_skipped(_: &mut Block) -> bool {
        panic!("ran a pass on a block whose clean bit was set")
    }

    #[test]
    fn run_local_sets_bit_only_on_false_and_skips_clean_blocks() {
        let mut f = Function::new("f", 1);
        let b = f.entry;
        assert_eq!(f.clean[b.index()], 0);
        assert!(!f.run_local(b, 0, unchanged));
        assert!(!f.run_local(b, 3, unchanged));
        assert_eq!(f.clean[b.index()], 0b1001);
        // A set bit skips the pass outright.
        assert!(!f.run_local(b, 0, must_be_skipped));
        // A pass that changes the block clears every bit and sets none.
        assert!(f.run_local(b, 1, grows));
        assert_eq!(f.clean[b.index()], 0);
        assert_eq!(f.block(b).insts.len(), 1);
    }

    #[test]
    fn block_mutation_and_structure_changes_clear_the_mask() {
        let mut f = Function::new("f", 1);
        let e = f.entry;
        let b = f.add_block(Block::new());
        assert_eq!(f.clean[b.index()], 0, "added blocks start dirty");
        f.run_local(e, 2, unchanged);
        f.run_local(b, 2, unchanged);
        let clone = f.clone();
        assert_eq!(clone.clean, f.clean, "clones keep the mask");
        f.block_mut(e);
        assert_eq!(f.clean[e.index()], 0);
        assert_eq!(f.clean[b.index()], 0b100, "other blocks keep their bits");
        f.remove_block(b);
        assert_eq!(f.clean[b.index()], 0);
    }

    #[test]
    fn restore_blocks_restores_the_snapshotted_mask() {
        let mut f = Function::new("f", 1);
        let e = f.entry;
        let b = f.add_block(Block::new());
        f.run_local(e, 0, unchanged);
        let snap = f.snapshot_blocks([e, b]);
        f.run_local(b, 1, unchanged);
        f.block_mut(e);
        f.add_block(Block::new());
        f.restore_blocks(snap);
        assert_eq!(f.clean, vec![0b1, 0]);
    }

    #[test]
    fn debug_output_ignores_the_mask() {
        let mut f = Function::new("f", 1);
        let e = f.entry;
        let before = format!("{f:?}");
        f.run_local(e, 4, unchanged);
        assert_eq!(format!("{f:?}"), before);
        assert!(!before.contains("clean"));
    }

    #[test]
    fn static_size_sums_blocks() {
        let mut f = Function::new("f", 0);
        let e = f.entry;
        f.block_mut(e).exits.push(Exit::ret(None));
        let r = f.new_reg();
        f.block_mut(e).insts.push(Instr::mov(r, Operand::Imm(1)));
        assert_eq!(f.static_size(), 2);
    }
}
