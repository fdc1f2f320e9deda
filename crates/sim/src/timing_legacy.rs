//! Legacy (pre-event-queue) simulator cores, compiled only into this
//! crate's tests as the differential reference for the rewritten engines in
//! [`crate::timing`] and [`crate::functional`].
//!
//! These are the original per-block interpreters: the timing model walks
//! `chf_ir` structures directly, re-matching `Option<Operand>` slots and
//! probing a hash map per issued instruction, and the functional loop
//! re-hashes profile keys per block. They are slow but simple, and the
//! rewritten cores must agree with them **exactly** — same cycles, same
//! counters, same return value and memory digest, same error on broken IR.
//! The [`differential`] tests enforce this over generated programs and the
//! full microbenchmark suite, and the table-1 golden cycle snapshot pins the
//! agreed numbers.
//!
//! One deliberate change is landed even here: the `MemoryOrdering::Exact`
//! LSQ path used to rescan every earlier store in the block per load
//! (quadratic in block size). It now uses a per-address last-store map —
//! the same structure the lowered representation precomputes — and debug
//! builds assert the map agrees with the original rescan on every load, so
//! the reference stays honest while the fix applies to both paths.

use crate::functional::{exec_inst, FuncResult, Machine, RunConfig, SimError};
use crate::predictor::ExitPredictor;
use crate::timing::{MemoryOrdering, TimingConfig, TimingResult, ISSUE_WIDTH};
use chf_ir::block::ExitTarget;
use chf_ir::function::Function;
use chf_ir::fxhash::FxHashMap;
use chf_ir::ids::BlockId;
use chf_ir::instr::{Opcode, Operand};
use chf_ir::loops::LoopForest;
use chf_ir::profile::ProfileData;
use std::collections::VecDeque;

/// Tracks issue-slot occupancy per cycle, pruned as time advances (the
/// original open-addressing-by-probe structure; the rewritten engine uses a
/// calendar ring instead).
struct IssueSlots {
    used: FxHashMap<u64, u32>,
    width: u32,
    prune_floor: u64,
}

impl IssueSlots {
    fn new(width: u32) -> Self {
        IssueSlots {
            used: FxHashMap::default(),
            width,
            prune_floor: 0,
        }
    }

    /// First cycle ≥ `ready` with a free slot; claims it.
    fn issue_at(&mut self, ready: u64) -> u64 {
        let mut t = ready;
        loop {
            let n = self.used.entry(t).or_insert(0);
            if *n < self.width {
                *n += 1;
                return t;
            }
            t += 1;
        }
    }

    /// Drop bookkeeping for cycles before `floor` (nothing issues in the
    /// past).
    fn prune_before(&mut self, floor: u64) {
        if floor > self.prune_floor + 4096 {
            self.used.retain(|t, _| *t >= floor);
            self.prune_floor = floor;
        }
    }
}

/// The original direct-interpretation timing model. Cycle-for-cycle the
/// behaviour [`crate::timing::simulate_timing`] must reproduce.
///
/// # Errors
/// Returns [`SimError::OutOfFuel`] if the block budget is exhausted, or a
/// malformed-IR [`SimError`] variant if `f` does not verify.
pub fn simulate_timing_legacy(
    f: &Function,
    args: &[i64],
    mem_init: &[(i64, i64)],
    config: &TimingConfig,
) -> Result<TimingResult, SimError> {
    let mut m = Machine::with_layout(f.reg_count() as usize, f.params, args, mem_init);
    let nregs = f.reg_count() as usize;
    // Reject out-of-range register references up front: the dense `avail`
    // vector below (and the liveness bitsets) index by register number, so
    // this single O(insts) sweep makes every later lookup in-bounds by
    // construction instead of a panic waiting for corrupted IR.
    for (id, blk) in f.blocks() {
        for inst in &blk.insts {
            for r in inst.uses().chain(inst.def()) {
                if r.index() >= nregs {
                    return Err(SimError::RegisterOutOfRange {
                        block: id,
                        reg: r.0,
                    });
                }
            }
        }
        for e in &blk.exits {
            if let Some(p) = e.pred {
                if p.reg.index() >= nregs {
                    return Err(SimError::RegisterOutOfRange {
                        block: id,
                        reg: p.reg.0,
                    });
                }
            }
            if let ExitTarget::Return(Some(Operand::Reg(r))) = e.target {
                if r.index() >= nregs {
                    return Err(SimError::RegisterOutOfRange {
                        block: id,
                        reg: r.0,
                    });
                }
            }
        }
    }
    let liveness = chf_ir::liveness::Liveness::compute(f);
    // Cycle at which each register's current value becomes available.
    let mut avail: Vec<u64> = vec![0; nregs];
    let mut predictor = ExitPredictor::new(config.predictor);
    let mut slots = IssueSlots::new(ISSUE_WIDTH);

    // In-order commit times of in-flight blocks.
    let mut inflight: VecDeque<u64> = VecDeque::new();
    let mut last_commit: u64 = 0;
    let mut fetch_ready: u64 = 0;

    let mut blocks_executed = 0u64;
    let mut insts_executed = 0u64;
    let mut insts_nullified = 0u64;
    let mut insts_fetched = 0u64;

    let mut written_this_block: Vec<u32> = Vec::new();
    let mut cur = f.entry;

    let ret = 'outer: loop {
        if blocks_executed >= config.max_blocks {
            return Err(SimError::OutOfFuel {
                executed: blocks_executed,
            });
        }
        blocks_executed += 1;

        let blk = f
            .try_block(cur)
            .ok_or(SimError::DanglingTarget { target: cur })?;
        let size = blk.size() as u64;
        insts_fetched += size;

        // --- Dispatch: wait for fetch, and for a window slot. ---
        let mut dispatch = fetch_ready;
        if inflight.len() >= config.window_blocks {
            let oldest = inflight.pop_front().unwrap();
            dispatch = dispatch.max(oldest);
        }
        slots.prune_before(dispatch);

        // Fetch/map of the *next* block is serialized behind this one.
        let map_cycles = config.block_overhead + size.div_ceil(config.fetch_bandwidth as u64);
        fetch_ready = dispatch + map_cycles;

        // --- Execute instructions in dataflow order. ---
        written_this_block.clear();
        // Executed stores in this block instance: (address, completion), and
        // the per-address completion maximum (the LSQ fix; the vector is
        // retained to cross-check the map in debug builds).
        let mut block_stores: Vec<(i64, u64)> = Vec::new();
        let mut store_done: FxHashMap<i64, u64> = FxHashMap::default();
        let mut any_store_done: u64 = 0;
        let mut outputs_done = dispatch;
        for inst in &blk.insts {
            // Resolve the predicate functionally and find its ready time.
            let (executes, pred_ready) = match inst.pred {
                None => (true, dispatch),
                Some(p) => {
                    let v = m.read(p.reg, cur, false)?;
                    let t = avail[p.reg.index()];
                    (((v != 0) == p.if_true), t.max(dispatch))
                }
            };

            if !executes {
                insts_nullified += 1;
                // Null token: the old value of dst forwards once the
                // predicate resolves.
                if let Some(d) = inst.def() {
                    if avail[d.index()] < pred_ready {
                        avail[d.index()] = pred_ready;
                        written_this_block.push(d.0);
                    }
                }
                continue;
            }

            insts_executed += 1;
            let mut ready = pred_ready.max(dispatch + 1);
            for o in [inst.a, inst.b].into_iter().flatten() {
                if let Operand::Reg(r) = o {
                    ready = ready.max(avail[r.index()]);
                }
            }
            // In-block memory ordering: a load may have to wait for earlier
            // stores, per the configured LSQ discipline.
            if inst.op == Opcode::Load {
                match config.memory_ordering {
                    MemoryOrdering::Oracle => {}
                    MemoryOrdering::Exact => {
                        let addr = m.operand(
                            inst.a
                                .ok_or(SimError::MalformedInstruction { block: cur })?,
                            cur,
                            false,
                        )?;
                        let wait = store_done.get(&addr).copied().unwrap_or(0);
                        #[cfg(debug_assertions)]
                        {
                            let mut scan = 0u64;
                            for &(sa, st) in &block_stores {
                                if sa == addr {
                                    scan = scan.max(st);
                                }
                            }
                            debug_assert_eq!(scan, wait, "LSQ map diverged from the legacy rescan");
                        }
                        ready = ready.max(wait);
                    }
                    MemoryOrdering::Conservative => {
                        ready = ready.max(any_store_done);
                    }
                }
            }
            let issue = slots.issue_at(ready);
            let done = issue + inst.op.latency();
            if inst.op == Opcode::Store {
                outputs_done = outputs_done.max(done);
                let addr = m.operand(
                    inst.a
                        .ok_or(SimError::MalformedInstruction { block: cur })?,
                    cur,
                    false,
                )?;
                if cfg!(debug_assertions) {
                    block_stores.push((addr, done));
                }
                let e = store_done.entry(addr).or_insert(0);
                *e = (*e).max(done);
                any_store_done = any_store_done.max(done);
            }
            if let Some(d) = inst.def() {
                avail[d.index()] = done;
                written_this_block.push(d.0);
            }
            exec_inst(&mut m, inst, cur, false)?;
        }

        // --- Resolve exits: find the fired exit and its resolve time. ---
        let mut resolve = dispatch + 1;
        let mut fired: Option<ExitTarget> = None;
        for e in blk.exits.iter() {
            match e.pred {
                None => {
                    fired = Some(e.target);
                    break;
                }
                Some(p) => {
                    let v = m.read(p.reg, cur, false)?;
                    let t = avail[p.reg.index()];
                    resolve = resolve.max(t);
                    if (v != 0) == p.if_true {
                        fired = Some(e.target);
                        break;
                    }
                }
            }
        }
        // Verified IR always ends in an unpredicated default exit; injected
        // faults can leave the exit set non-total.
        let target = fired.ok_or(SimError::NoFiringExit { block: cur })?;
        // A returned value is a block output.
        if let ExitTarget::Return(Some(Operand::Reg(r))) = target {
            outputs_done = outputs_done.max(avail[r.index()]);
        }

        // --- Prediction: next-block target (static fallback: the first
        // exit's target, the compiler's most-likely-first ordering). ---
        let fallback = blk.exits[0].target;
        let correct = predictor.update(cur, fallback, target);
        if !correct {
            // Flush: the next block cannot even begin fetching until the
            // exit resolves, plus the flush penalty.
            fetch_ready = fetch_ready.max(resolve + config.mispredict_penalty);
        }

        // --- Commit (in order): branch decision, stores, and live-out
        // register writes must all have resolved. ---
        let live_out = liveness.live_out(cur);
        for &r in written_this_block.iter() {
            if live_out.contains(&chf_ir::ids::Reg(r)) {
                outputs_done = outputs_done.max(avail[r as usize]);
            }
        }
        let block_done = outputs_done.max(resolve);
        let commit = block_done.max(last_commit + config.commit_overhead);
        last_commit = commit;
        inflight.push_back(commit);

        // Cross-block register communication pays register-file latency.
        for r in written_this_block.drain(..) {
            avail[r as usize] += config.register_latency;
        }

        match target {
            ExitTarget::Block(next) => {
                cur = next;
            }
            ExitTarget::Return(v) => {
                let ret = match v {
                    None => None,
                    Some(op) => Some(m.operand(op, cur, false)?),
                };
                break 'outer ret;
            }
        }
    };

    Ok(TimingResult {
        cycles: last_commit,
        blocks_executed,
        predictions: predictor.predictions(),
        mispredictions: predictor.mispredictions(),
        insts_executed,
        insts_nullified,
        insts_fetched,
        ret,
        memory: m.mem,
    })
}

/// Tracks trip counts of active loop visits during execution (the original
/// `LoopForest` + hash-map tracker; the rewritten core uses dense bitsets
/// derived from the lowered CFG).
struct TripTracker {
    forest: LoopForest,
    /// `loop index → current consecutive iteration count`, absent = inactive.
    active: FxHashMap<usize, u64>,
}

impl TripTracker {
    fn new(f: &Function) -> TripTracker {
        TripTracker {
            forest: LoopForest::of(f),
            active: FxHashMap::default(),
        }
    }

    fn on_block(&mut self, b: BlockId, profile: &mut ProfileData) {
        // Close visits of loops we've left.
        let mut finished: Vec<usize> = Vec::new();
        for (&li, _) in self.active.iter() {
            if !self.forest.loops[li].body.contains(&b) {
                finished.push(li);
            }
        }
        for li in finished {
            let trips = self.active.remove(&li).unwrap();
            profile
                .trip_histograms
                .entry(self.forest.loops[li].header)
                .or_default()
                .record(trips);
        }
        // Count an iteration when control reaches a header.
        for (li, l) in self.forest.loops.iter().enumerate() {
            if l.header == b {
                *self.active.entry(li).or_insert(0) += 1;
            }
        }
    }

    fn finish(&mut self, profile: &mut ProfileData) {
        for (li, trips) in self.active.drain() {
            profile
                .trip_histograms
                .entry(self.forest.loops[li].header)
                .or_default()
                .record(trips);
        }
    }
}

/// The original direct-interpretation functional simulator. The rewritten
/// [`crate::functional::run`] must produce identical results (including the
/// full profile) on every input.
///
/// # Errors
/// Exactly the errors of [`crate::functional::run`], at the same execution
/// points.
pub fn run_legacy(
    f: &Function,
    args: &[i64],
    mem_init: &[(i64, i64)],
    config: &RunConfig,
) -> Result<FuncResult, SimError> {
    let mut m = Machine::with_layout(f.reg_count() as usize, f.params, args, mem_init);
    let mut profile = ProfileData::default();
    let mut trips = if config.collect_trip_counts {
        Some(TripTracker::new(f))
    } else {
        None
    };

    let mut blocks_executed = 0u64;
    let mut insts_executed = 0u64;
    let mut insts_fetched = 0u64;
    let check = config.check_uninit;

    let mut cur = f.entry;
    let ret = 'outer: loop {
        if blocks_executed >= config.max_blocks {
            return Err(SimError::OutOfFuel {
                executed: blocks_executed,
            });
        }
        blocks_executed += 1;
        *profile.block_counts.entry(cur).or_insert(0) += 1;
        if let Some(t) = trips.as_mut() {
            t.on_block(cur, &mut profile);
        }

        let blk = f
            .try_block(cur)
            .ok_or(SimError::DanglingTarget { target: cur })?;
        insts_fetched += blk.size() as u64;

        for inst in &blk.insts {
            if let Some(p) = inst.pred {
                let v = m.read(p.reg, cur, check)?;
                if (v != 0) != p.if_true {
                    continue;
                }
            }
            insts_executed += 1;
            exec_inst(&mut m, inst, cur, check)?;
        }

        for (i, e) in blk.exits.iter().enumerate() {
            let fires = match e.pred {
                None => true,
                Some(p) => {
                    let v = m.read(p.reg, cur, check)?;
                    (v != 0) == p.if_true
                }
            };
            if !fires {
                continue;
            }
            *profile.exit_counts.entry((cur, i)).or_insert(0) += 1;
            match e.target {
                ExitTarget::Block(next) => {
                    cur = next;
                    continue 'outer;
                }
                ExitTarget::Return(v) => {
                    let ret = match v {
                        None => None,
                        Some(op) => Some(m.operand(op, cur, check)?),
                    };
                    break 'outer ret;
                }
            }
        }
        // Verified IR always ends in an unpredicated default exit, but
        // chaos-injected IR may not.
        return Err(SimError::NoFiringExit { block: cur });
    };

    if let Some(t) = trips.as_mut() {
        t.finish(&mut profile);
    }

    Ok(FuncResult {
        ret,
        blocks_executed,
        insts_executed,
        insts_fetched,
        memory: m.mem,
        profile,
    })
}

mod differential;
