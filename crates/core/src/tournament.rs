//! Per-function policy tournaments: run a small portfolio of
//! block-selection policies, score each entrant on the training input, and
//! keep the winner's formed blocks.
//!
//! PR 4's equal-budget ablation showed no fixed policy dominates: hot-first
//! wins suite totals but loses composites where structure beats profile
//! signal. The tournament closes that gap adaptively: for each function it
//! compiles every `(policy, trial-budget)` entrant of a configurable
//! portfolio, scores each by the functional simulator's dynamic block count
//! on the training input (the paper's Table 3 proxy, strongly correlated
//! with cycles: Figure 7), and keeps the artifact with the best score. Entrant enumeration, scoring,
//! and tie-breaking are fully deterministic, so a tournament run at any
//! worker count picks the same winner.
//!
//! Selection lives in one routine, [`select_winner`], which takes the
//! baseline and an *entrant executor* that compiles the portfolio.
//! [`run_tournament`] passes a sequential `try_compile` map; the compile
//! service passes its `submit_batch` fan-out and adds a CFG-shape cache so
//! recurring shapes skip the full portfolio (see `chf-service`). Scoring and
//! tie-breaking never depend on the executor, so both pick the same winner.

use crate::pipeline::{try_compile, CompileConfig, Compiled};
use crate::policy::PolicyKind;
use crate::ChfError;
use chf_ir::function::Function;
use chf_ir::profile::ProfileData;
use chf_sim::functional::{run, RunConfig};

/// Portfolio and scoring configuration of a tournament.
#[derive(Clone, Debug)]
pub struct TournamentConfig {
    /// Policies entered, in deterministic tie-break order (earlier wins
    /// ties).
    pub policies: Vec<PolicyKind>,
    /// Trial-budget points each policy is entered at (`None` = unbounded).
    /// The portfolio is the cross product `policies × budgets`.
    pub budgets: Vec<Option<usize>>,
    /// Shape-cache guard band, in permille of baseline improvement: a hot
    /// (cached-winner) compile whose improvement falls more than this far
    /// below the cached score triggers a full tournament instead of
    /// trusting the stale winner. Used by the service layer.
    pub guard_band_permille: u32,
    /// Base compiler configuration every entrant is derived from (entrants
    /// override only `policy` and `trial_budget`).
    pub base: CompileConfig,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig {
            policies: vec![
                PolicyKind::BreadthFirst,
                PolicyKind::HotFirst,
                PolicyKind::DepthFirst,
            ],
            budgets: vec![Some(16), None],
            guard_band_permille: 20,
            base: CompileConfig::convergent(),
        }
    }
}

impl TournamentConfig {
    /// The portfolio as `(label, config)` pairs, in deterministic entrant
    /// order (policy-major, so ties resolve to the earlier policy at the
    /// tighter budget). Labels render the budget point (`HF@16`, `DF@unb`).
    pub fn entrants(&self) -> Vec<(String, CompileConfig)> {
        let mut out = Vec::with_capacity(self.policies.len() * self.budgets.len());
        for &policy in &self.policies {
            for &budget in &self.budgets {
                let mut config = self.base.clone();
                config.policy = policy;
                config.trial_budget = budget;
                out.push((entrant_label(policy, budget), config));
            }
        }
        out
    }
}

/// Stable label for one `(policy, budget)` entrant.
fn entrant_label(policy: PolicyKind, budget: Option<usize>) -> String {
    match budget {
        Some(b) => format!("{}@{b}", policy.label()),
        None => format!("{}@unb", policy.label()),
    }
}

/// One scored entrant.
#[derive(Clone, Debug)]
pub struct Entrant {
    /// Display label (`BF@16`, `HF@unb`, …).
    pub label: String,
    /// The policy entered.
    pub policy: PolicyKind,
    /// The trial budget entered at.
    pub budget: Option<usize>,
    /// Dynamic block count (lower is better); `None` when the entrant failed to
    /// compile, simulate, or preserve behaviour (it is then excluded from
    /// winner selection rather than poisoning the tournament).
    pub score: Option<u64>,
    /// Formation trials the entrant spent.
    pub trials: usize,
}

/// Outcome of one tournament.
#[derive(Clone, Debug)]
pub struct TournamentResult {
    /// The winning artifact, with
    /// [`FormationStats::tournament_entrants`](crate::FormationStats)
    /// stamped to the portfolio size that produced it.
    pub compiled: Compiled,
    /// Winning policy.
    pub policy: PolicyKind,
    /// Winning trial budget.
    pub budget: Option<usize>,
    /// Winning entrant's label.
    pub label: String,
    /// Winning entrant's score.
    pub score: u64,
    /// Dynamic block count of the *uncompiled* input, for
    /// normalizing scores into improvements (shape-cache guard band).
    pub baseline: u64,
    /// Every entrant, in portfolio order, with its score.
    pub entrants: Vec<Entrant>,
}

impl TournamentResult {
    /// The winner's improvement over baseline, in permille (negative when
    /// the winner is *worse* than the uncompiled input — possible under
    /// pathological budgets).
    pub fn improvement_permille(&self) -> i64 {
        improvement_permille(self.baseline, self.score)
    }
}

/// Improvement of `score` over `baseline`, in permille of `baseline`.
fn improvement_permille(baseline: u64, score: u64) -> i64 {
    if baseline == 0 {
        return 0;
    }
    (baseline as i64 - score as i64) * 1000 / baseline as i64
}

/// Observable behaviour of a run — the functional simulator's digest
/// (return value plus final memory), which every entrant must reproduce.
pub type BehaviourDigest = (Option<i64>, Vec<(i64, i64)>);

/// Score one compiled artifact by its dynamic block count, verifying
/// behaviour against the expected functional digest of the uncompiled
/// input.
///
/// # Errors
/// A message when simulation fails or the artifact changed observable
/// behaviour — the tournament must never crown a miscompile.
fn score(
    compiled: &Function,
    args: &[i64],
    memory: &[(i64, i64)],
    expected_digest: &BehaviourDigest,
) -> Result<u64, String> {
    let r = run(compiled, args, memory, &RunConfig::default())
        .map_err(|e| format!("functional simulation failed: {e}"))?;
    if &r.digest() != expected_digest {
        return Err("behaviour changed (functional digest mismatch)".to_string());
    }
    Ok(r.blocks_executed)
}

/// The uncompiled input's behaviour and score: the reference every
/// entrant is validated and normalized against.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Functional digest every entrant must reproduce.
    pub digest: BehaviourDigest,
    /// Dynamic block count of the uncompiled input.
    pub score: u64,
}

/// Establish the [`Baseline`] of the uncompiled input.
///
/// # Errors
/// [`ChfError`] when the input itself fails to simulate.
pub fn baseline(f: &Function, args: &[i64], memory: &[(i64, i64)]) -> Result<Baseline, ChfError> {
    let r = run(f, args, memory, &RunConfig::default()).map_err(|e| ChfError::Panicked {
        context: "tournament baseline",
        message: format!("baseline simulation failed: {e}"),
    })?;
    Ok(Baseline {
        digest: r.digest(),
        score: r.blocks_executed,
    })
}

/// Run the full portfolio sequentially and crown a winner: every entrant
/// is compiled in portfolio order on the calling thread.
///
/// # Errors
/// As [`select_winner`], plus a failed [`baseline`].
pub fn run_tournament(
    f: &Function,
    profile: &ProfileData,
    args: &[i64],
    memory: &[(i64, i64)],
    config: &TournamentConfig,
) -> Result<TournamentResult, ChfError> {
    let base = baseline(f, args, memory)?;
    select_winner(args, memory, config, &base, |portfolio| {
        portfolio
            .iter()
            .map(|(_, entrant)| try_compile(f, profile, entrant).ok())
            .collect()
    })
}

/// The tournament: compile the portfolio through `execute`, score every
/// entrant against `base` on the training input, and crown the best.
///
/// `execute` receives the portfolio ([`TournamentConfig::entrants`]) and
/// returns one artifact per entrant, in the same order, with `None` for an
/// entrant that failed to compile (or was shed or timed out). Scoring and
/// tie-breaking happen here, in portfolio order, and ties go to the earlier
/// entrant — so every executor, sequential or parallel, crowns the same
/// winner.
///
/// # Errors
/// [`ChfError`] when *every* entrant fails; individual failures (compile
/// errors, miscompiles, simulation errors) are contained and recorded on
/// the entrant with no score.
pub fn select_winner(
    args: &[i64],
    memory: &[(i64, i64)],
    config: &TournamentConfig,
    base: &Baseline,
    execute: impl FnOnce(&[(String, CompileConfig)]) -> Vec<Option<Compiled>>,
) -> Result<TournamentResult, ChfError> {
    let portfolio = config.entrants();
    let artifacts = execute(&portfolio);
    debug_assert_eq!(artifacts.len(), portfolio.len(), "one artifact per entrant");
    let mut entrants = Vec::with_capacity(portfolio.len());
    let mut best: Option<(usize, u64, Compiled)> = None;
    for (idx, ((label, entrant), artifact)) in portfolio.into_iter().zip(artifacts).enumerate() {
        let scored = artifact.and_then(|compiled| {
            score(&compiled.function, args, memory, &base.digest)
                .ok()
                .map(|s| (compiled, s))
        });
        entrants.push(Entrant {
            label,
            policy: entrant.policy,
            budget: entrant.trial_budget,
            score: scored.as_ref().map(|(_, s)| *s),
            trials: scored.as_ref().map_or(0, |(c, _)| c.stats.trials),
        });
        if let Some((compiled, s)) = scored {
            // Strict `<` keeps the earliest entrant on ties.
            if best.as_ref().is_none_or(|(_, b, _)| s < *b) {
                best = Some((idx, s, compiled));
            }
        }
    }

    let (idx, score, mut compiled) = best.ok_or(ChfError::Panicked {
        context: "tournament",
        message: "every portfolio entrant failed".to_string(),
    })?;
    compiled.stats.tournament_entrants = entrants.len();
    Ok(TournamentResult {
        compiled,
        policy: entrants[idx].policy,
        budget: entrants[idx].budget,
        label: entrants[idx].label.clone(),
        score,
        baseline: base.score,
        entrants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::Operand;
    use chf_sim::functional::profile_run;

    fn loopy() -> (Function, Vec<i64>) {
        let mut fb = FunctionBuilder::new("loopy", 1);
        let entry = fb.create_block();
        let header = fb.create_block();
        let body = fb.create_block();
        let exit = fb.create_block();
        fb.switch_to(entry);
        let i = fb.mov(Operand::Imm(0));
        let acc = fb.mov(Operand::Imm(0));
        fb.jump(header);
        fb.switch_to(header);
        let c = fb.cmp_lt(Operand::Reg(i), Operand::Reg(fb.param(0)));
        fb.branch(c, body, exit);
        fb.switch_to(body);
        let a2 = fb.add(Operand::Reg(acc), Operand::Reg(i));
        fb.mov_to(acc, Operand::Reg(a2));
        let i2 = fb.add(Operand::Reg(i), Operand::Imm(1));
        fb.mov_to(i, Operand::Reg(i2));
        fb.jump(header);
        fb.switch_to(exit);
        fb.ret(Some(Operand::Reg(acc)));
        (fb.build().unwrap(), vec![10])
    }

    #[test]
    fn entrants_are_the_cross_product_in_order() {
        let config = TournamentConfig::default();
        let entrants = config.entrants();
        assert_eq!(entrants.len(), 6);
        assert_eq!(entrants[0].0, "BF@16");
        assert_eq!(entrants[1].0, "BF@unb");
        assert_eq!(entrants[2].0, "HF@16");
        assert_eq!(entrants[5].0, "DF@unb");
        assert_eq!(entrants[3].1.trial_budget, None);
        assert_eq!(entrants[2].1.policy, PolicyKind::HotFirst);
    }

    #[test]
    fn tournament_beats_or_matches_every_entrant_and_is_deterministic() {
        let (f, args) = loopy();
        let profile = profile_run(&f, &args, &[]).unwrap();
        let config = TournamentConfig::default();
        let r1 = run_tournament(&f, &profile, &args, &[], &config).unwrap();
        let r2 = run_tournament(&f, &profile, &args, &[], &config).unwrap();
        assert_eq!(r1.label, r2.label);
        assert_eq!(r1.score, r2.score);
        assert_eq!(r1.compiled.stats, r2.compiled.stats);
        assert_eq!(r1.compiled.stats.tournament_entrants, 6);
        for e in &r1.entrants {
            if let Some(s) = e.score {
                assert!(
                    r1.score <= s,
                    "{}: winner {} > entrant {s}",
                    e.label,
                    r1.score
                );
            }
        }
        assert!(r1.score <= r1.baseline, "formation made the loop worse");
    }

    #[test]
    fn improvement_permille_is_signed() {
        assert_eq!(improvement_permille(1000, 750), 250);
        assert_eq!(improvement_permille(1000, 1100), -100);
        assert_eq!(improvement_permille(0, 5), 0);
    }
}
