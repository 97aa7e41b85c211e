//! Space-time tradeoff computation for 2-phase disjunctive rules.
//!
//! This module is the computational heart of the reproduction. Given the
//! *shape* of a 2-phase disjunctive rule (its S-target and T-target
//! schemas) and the degree-constraint statistics of the input, it answers
//! the two questions the paper answers analytically:
//!
//! 1. **`OBJ(S)` sweeps** ([`time_exponent_at`], [`TradeoffCurve`]): for a
//!    concrete space-budget exponent `σ = log_{|D|} S`, the best achievable
//!    online-time exponent `τ = log_{|D|} T` — equation (12) of the paper,
//!    solved exactly as one LP over the product polymatroid cone. Sweeping
//!    `σ` regenerates the curves of Figure 4a/4b.
//! 2. **Symbolic tradeoff verification** ([`verify_tradeoff`]): whether a
//!    claimed tradeoff `S^w · T^v ≾ |D|^c · |Q_A|^d` holds for *all*
//!    database and access-request sizes — the statements of Table 1,
//!    Section 6 and Appendix E. The check treats `log|Q_A|` as an LP
//!    variable, so a single LP covers every access-request size.
//!
//! The LP encodes: elemental polymatroid inequalities for `h_S` and `h_T`,
//! the degree constraints `DC` (both phases), the access constraints `AC`
//! (online phase only), and the split constraints `SC` that couple the two
//! phases (Definition C.2).
//!
//! [`Stats`] is the one degree-constraint type, with two constructors:
//! [`Stats::uniform_for_cqap`] is the paper's setting (every atom `|D|`, no
//! degree constraint), and [`Stats::measured`] prices a concrete database
//! (every atom's measured degrees `N_{Y|X}`). A measured bound is the
//! exponent `log_{|D|} N` with `|D|` the largest relation's size, rounded
//! *up* to a multiple of 1/64, so it stays a true upper bound and the LP
//! stays exact-rational.

use crate::lp::{Lp, LpOutcome, Relation};
use crate::polycone::PolyVars;
use cqap_common::{CqapError, Rat, Result, VarSet};
use cqap_query::Cqap;
use cqap_relation::Database;
use std::fmt;

/// The shape of a 2-phase disjunctive rule: the schemas of its S-targets
/// (preprocessing) and T-targets (online). See Definition 4.1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleShape {
    /// Number of query variables `n`.
    pub num_vars: usize,
    /// S-target schemas `B_S`.
    pub s_targets: Vec<VarSet>,
    /// T-target schemas `B_T`.
    pub t_targets: Vec<VarSet>,
}

impl RuleShape {
    /// Creates a rule shape, deduplicating targets.
    pub fn new(num_vars: usize, s_targets: Vec<VarSet>, t_targets: Vec<VarSet>) -> Self {
        let mut s = s_targets;
        let mut t = t_targets;
        s.sort_unstable();
        s.dedup();
        t.sort_unstable();
        t.dedup();
        RuleShape {
            num_vars,
            s_targets: s,
            t_targets: t,
        }
    }

    /// Paper-style label such as `T134 ∨ T124 ∨ S14`.
    pub fn label(&self) -> String {
        let fmt_set = |s: &VarSet, tag: char| {
            let digits: String = s.iter().map(|v| (v + 1).to_string()).collect();
            format!("{tag}{digits}")
        };
        let mut parts: Vec<String> = self.t_targets.iter().map(|s| fmt_set(s, 'T')).collect();
        parts.extend(self.s_targets.iter().map(|s| fmt_set(s, 'S')));
        parts.join(" ∨ ")
    }
}

/// A symbolic log-size `d · log|D| + q · log|Q_A|`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogSize {
    /// Coefficient of `log|D|`.
    pub d: Rat,
    /// Coefficient of `log|Q_A|`.
    pub q: Rat,
}

impl LogSize {
    /// `log|Q_A|` (the size of the access request).
    pub(crate) fn access() -> Self {
        LogSize {
            d: Rat::ZERO,
            q: Rat::ONE,
        }
    }

    /// Evaluates at `log|D| = 1` and the given `log|Q_A|`.
    pub(crate) fn eval(&self, log_q: Rat) -> Rat {
        self.d + self.q * log_q
    }
}

/// A single symbolic degree/cardinality constraint used by the LP layer.
#[derive(Clone, Copy, Debug)]
pub struct StatConstraint {
    /// Conditioning variables `X` (empty for a cardinality constraint).
    pub on: VarSet,
    /// Constrained variables `Y`.
    pub of: VarSet,
    /// The symbolic bound `N_{Y|X}`.
    pub size: LogSize,
}

/// Symbolic input statistics: the degree constraints `DC` guarded by the
/// database and `AC` guarded by the access request, with bounds expressed
/// in units of `log|D|` and `log|Q_A|`.
///
/// `DC` holds at most one constraint per `(X, Y)` pair, the smallest bound
/// (the paper's *best constraint assumption*).
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Number of query variables.
    pub num_vars: usize,
    /// Constraints guarded by input relations.
    pub dc: Vec<StatConstraint>,
    /// Constraints guarded by the access request.
    pub ac: Vec<StatConstraint>,
}

/// The denominator measured exponents are rounded up to: a measured bound
/// `N` becomes `|D|^{k/64}`.
const EXPONENT_DENOM: i128 = 64;

impl Stats {
    /// The "uniform" statistics used throughout the paper's examples: every
    /// atom's variable set gets the cardinality bound `|D|`, and the access
    /// pattern gets the cardinality bound `|Q_A|`.
    pub fn uniform_for_cqap(cqap: &Cqap) -> Stats {
        let mut stats = Stats::for_access(cqap);
        for edge in cqap.hypergraph().edges() {
            stats.add_dc(VarSet::EMPTY, *edge, Rat::ONE);
        }
        stats
    }

    /// The statistics of a concrete database: for every atom `F` and every
    /// `X ⊂ Y ⊆ vars(F)`, the measured maximum degree `N_{Y|X}` of the
    /// atom's stored relation, as the exponent `log_{|D|} N_{Y|X}` rounded
    /// up to a multiple of 1/64, with `|D|` = [`Database::size`]. The access
    /// pattern gets `|Q_A|`, as in [`Stats::uniform_for_cqap`].
    ///
    /// # Errors
    /// Returns an error if an atom's relation is missing from `db` or has a
    /// different arity than the atom.
    pub fn measured(cqap: &Cqap, db: &Database) -> Result<Stats> {
        let mut stats = Stats::for_access(cqap);
        let size = db.size();
        for atom in cqap.cq().atoms() {
            let rel = db.relation_or_err(&atom.relation)?;
            let columns = rel.schema().vars();
            if columns.len() != atom.arity() {
                return Err(CqapError::SchemaMismatch {
                    expected: format!("arity {}", atom.arity()),
                    found: format!("arity {}", columns.len()),
                });
            }
            // The stored columns holding the atom variables in `s`.
            let stored = |s: VarSet| -> VarSet {
                atom.vars
                    .iter()
                    .zip(columns)
                    .filter(|(v, _)| s.contains(**v))
                    .map(|(_, &c)| c)
                    .collect()
            };
            for y in atom.varset().subsets().filter(|y| !y.is_empty()) {
                for x in y.subsets().filter(|&x| x != y) {
                    let degree = rel.max_degree(stored(x), stored(y))?;
                    stats.add_dc(x, y, size_exponent(degree, size));
                }
            }
        }
        Ok(stats)
    }

    /// Statistics with the access constraint `|Q_A|` and no `DC` yet.
    fn for_access(cqap: &Cqap) -> Stats {
        let ac = if cqap.access().is_empty() {
            Vec::new()
        } else {
            vec![StatConstraint {
                on: VarSet::EMPTY,
                of: cqap.access(),
                size: LogSize::access(),
            }]
        };
        Stats {
            num_vars: cqap.num_vars(),
            dc: Vec::new(),
            ac,
        }
    }

    /// Adds the degree constraint `N_{of|on} ≤ |D|^d` guarded by the
    /// database, keeping the smaller bound if the pair is already present.
    fn add_dc(&mut self, on: VarSet, of: VarSet, d: Rat) {
        match self.dc.iter_mut().find(|c| c.on == on && c.of == of) {
            Some(c) => c.size.d = c.size.d.min(d),
            None => self.dc.push(StatConstraint {
                on,
                of,
                size: LogSize { d, q: Rat::ZERO },
            }),
        }
    }

    /// The split constraints `SC` spanned by the cardinality constraints of
    /// `DC` (Definition C.2): one `(X, Y | X, N_Z)` triple for every
    /// cardinality constraint `(∅, Z, N_Z)` and every `∅ ≠ X ⊂ Y ⊆ Z`.
    pub fn split_constraints(&self) -> Vec<(VarSet, VarSet, LogSize)> {
        let mut out = Vec::new();
        for c in &self.dc {
            if !c.on.is_empty() {
                continue;
            }
            for y in c.of.subsets() {
                if y.len() < 2 {
                    continue;
                }
                for x in y.proper_nonempty_subsets() {
                    out.push((x, y, c.size));
                }
            }
        }
        out
    }
}

/// `log_{|D|} n` rounded up to a multiple of `1/EXPONENT_DENOM`: the
/// smallest `k/64` with `|D|^{k/64} ≥ n`, clamped to `[0, 1]` (sound
/// because `n ≤ |D|`). `n ≤ 1` or `|D| ≤ 1` gives 0. Decided in integers,
/// `n^64 ≤ |D|^k`, so a power of `|D|` is not rounded past its exponent.
fn size_exponent(n: usize, db_size: usize) -> Rat {
    if n <= 1 || db_size <= 1 {
        return Rat::ZERO;
    }
    let mut target = vec![1];
    for _ in 0..EXPONENT_DENOM {
        mul_limbs(&mut target, n);
    }
    // `|D|^k` for k = 0, 1, …: the first that reaches `n^64`.
    let mut power = vec![1];
    for k in 0..EXPONENT_DENOM {
        if limbs_le(&target, &power) {
            return Rat::new(k, EXPONENT_DENOM);
        }
        mul_limbs(&mut power, db_size);
    }
    Rat::ONE
}

/// Multiplies a little-endian `u64`-limb number by `factor` in place.
fn mul_limbs(limbs: &mut Vec<u64>, factor: usize) {
    let mut carry = 0u128;
    for limb in limbs.iter_mut() {
        let wide = *limb as u128 * factor as u128 + carry;
        *limb = wide as u64;
        carry = wide >> 64;
    }
    if carry > 0 {
        limbs.push(carry as u64);
    }
}

/// `a ≤ b` for little-endian limb numbers without leading zero limbs.
fn limbs_le(a: &[u64], b: &[u64]) -> bool {
    a.len() < b.len() || (a.len() == b.len() && a.iter().rev().le(b.iter().rev()))
}

/// A claimed symbolic tradeoff `S^{s_exp} · T^{t_exp} ≾ |D|^{d_exp} ·
/// |Q_A|^{q_exp}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SymbolicTradeoff {
    /// Exponent of the space budget `S`.
    pub s_exp: Rat,
    /// Exponent of the answering time `T`.
    pub t_exp: Rat,
    /// Exponent of the database size `|D|`.
    pub d_exp: Rat,
    /// Exponent of the access-request size `|Q_A|`.
    pub q_exp: Rat,
}

impl SymbolicTradeoff {
    /// Convenience constructor from integer exponents.
    pub fn new(s_exp: i64, t_exp: i64, d_exp: i64, q_exp: i64) -> Self {
        SymbolicTradeoff {
            s_exp: Rat::int(s_exp as i128),
            t_exp: Rat::int(t_exp as i128),
            d_exp: Rat::int(d_exp as i128),
            q_exp: Rat::int(q_exp as i128),
        }
    }
}

impl fmt::Display for SymbolicTradeoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let exp = |e: Rat| {
            if e == Rat::ONE {
                String::new()
            } else {
                format!("^{e}")
            }
        };
        let mut lhs = Vec::new();
        if !self.s_exp.is_zero() {
            lhs.push(format!("S{}", exp(self.s_exp)));
        }
        if !self.t_exp.is_zero() {
            lhs.push(format!("T{}", exp(self.t_exp)));
        }
        let mut rhs = Vec::new();
        if !self.d_exp.is_zero() {
            rhs.push(format!("|D|{}", exp(self.d_exp)));
        }
        if !self.q_exp.is_zero() {
            rhs.push(format!("|Q|{}", exp(self.q_exp)));
        }
        if rhs.is_empty() {
            rhs.push("1".to_string());
        }
        write!(f, "{} ≾ {}", lhs.join("·"), rhs.join("·"))
    }
}

/// One point of a space-time tradeoff curve, in `log_{|D|}` units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TradeoffPoint {
    /// `log_{|D|} S`.
    pub space: Rat,
    /// `log_{|D|} T`.
    pub time: Rat,
}

/// A piecewise-linear space-time tradeoff curve sampled at a set of space
/// budgets (Figure 4a/4b).
#[derive(Clone, Debug, Default)]
pub struct TradeoffCurve {
    /// The sampled points, in increasing space order.
    pub points: Vec<TradeoffPoint>,
}

impl TradeoffCurve {
    /// The time exponent at the given space exponent, if sampled.
    pub fn time_at(&self, space: Rat) -> Option<Rat> {
        self.points
            .iter()
            .find(|p| p.space == space)
            .map(|p| p.time)
    }

    /// Whether the curve is non-increasing in space (more space never
    /// hurts).
    pub fn is_monotone(&self) -> bool {
        self.points
            .windows(2)
            .all(|w| w[0].space <= w[1].space && w[0].time >= w[1].time)
    }
}

/// Builds the common part of the tradeoff LP: two polymatroid blocks, the
/// DC constraints (both phases), the AC constraints (online phase), and the
/// SC coupling constraints. Returns the LP and the two variable blocks.
///
/// When `q_var` is `Some(idx)`, `log|Q_A|` is the LP variable `idx` and the
/// symbolic bounds become `h(...) − q_coeff · q ≤ d_coeff`; otherwise the
/// bounds are evaluated at the fixed `log_q`.
fn base_lp(
    stats: &Stats,
    extra_vars: usize,
    q_var: Option<usize>,
    log_q: Rat,
) -> (Lp, PolyVars, PolyVars) {
    let n = stats.num_vars;
    let block = PolyVars::block_len(n);
    let pre = PolyVars { n, base: 0 };
    let online = PolyVars { n, base: block };
    let mut lp = Lp::new(2 * block + extra_vars);
    pre.add_polymatroid_constraints(&mut lp);
    online.add_polymatroid_constraints(&mut lp);

    let mut add_bound = |row: Vec<(usize, Rat)>, size: LogSize| {
        let mut row = row;
        let rhs = match q_var {
            Some(q) => {
                if !size.q.is_zero() {
                    row.push((q, -size.q));
                }
                size.d
            }
            None => size.eval(log_q),
        };
        lp.add_constraint(row, Relation::Le, rhs);
    };

    // DC: both phases. AC: online phase only.
    for c in &stats.dc {
        for pv in [&pre, &online] {
            let mut row = Vec::new();
            pv.push_conditional(&mut row, Rat::ONE, c.of, c.on);
            add_bound(row, c.size);
        }
    }
    for c in &stats.ac {
        let mut row = Vec::new();
        online.push_conditional(&mut row, Rat::ONE, c.of, c.on);
        add_bound(row, c.size);
    }
    // SC: h_S(X) + h_T(Y|X) ≤ N_Z and h_S(Y|X) + h_T(X) ≤ N_Z.
    for (x, y, size) in stats.split_constraints() {
        let mut row = Vec::new();
        pre.push(&mut row, Rat::ONE, x);
        online.push_conditional(&mut row, Rat::ONE, y, x);
        add_bound(row, size);

        let mut row = Vec::new();
        pre.push_conditional(&mut row, Rat::ONE, y, x);
        online.push(&mut row, Rat::ONE, x);
        add_bound(row, size);
    }
    (lp, pre, online)
}

/// The best achievable online-time exponent `τ = log_{|D|} T` for a rule at
/// space budget `S = |D|^σ` and access-request size `|Q_A| = |D|^{log_q}`
/// — equation (12) of the paper, solved exactly.
///
/// Returns `Some(0)` when the budget suffices to materialize every
/// S-target for every input (the LP of (12) is infeasible), and `None` when
/// the online time is unbounded under the given statistics (which indicates
/// missing constraints rather than a meaningful tradeoff).
pub fn time_exponent_at(rule: &RuleShape, stats: &Stats, sigma: Rat, log_q: Rat) -> Option<Rat> {
    assert_eq!(
        rule.num_vars, stats.num_vars,
        "rule/stats variable mismatch"
    );
    if rule.t_targets.is_empty() {
        return Some(Rat::ZERO);
    }
    let n = stats.num_vars;
    let block = PolyVars::block_len(n);
    let tmin = 2 * block; // index of the auxiliary min-variable
    let (mut lp, pre, online) = base_lp(stats, 1, None, log_q);
    lp.set_objective(tmin, Rat::ONE);
    for b in &rule.t_targets {
        // tmin − h_T(B) ≤ 0.
        let mut row = vec![(tmin, Rat::ONE)];
        online.push(&mut row, -Rat::ONE, *b);
        lp.add_constraint(row, Relation::Le, Rat::ZERO);
    }
    for b in &rule.s_targets {
        // h_S(B) ≥ σ.
        let mut row = Vec::new();
        pre.push(&mut row, Rat::ONE, *b);
        lp.add_constraint(row, Relation::Ge, sigma);
    }
    match lp.solve() {
        LpOutcome::Optimal { value, .. } => Some(value.max(Rat::ZERO)),
        LpOutcome::Infeasible => Some(Rat::ZERO),
        LpOutcome::Unbounded => None,
    }
}

/// Verifies a claimed symbolic tradeoff `S^w · T^v ≾ |D|^c · |Q_A|^d` for a
/// rule under the given statistics, for **all** database and access-request
/// sizes.
///
/// The check maximizes `w · min_B h_S(B) + v · min_B h_T(B) − d · log|Q_A|`
/// over the coupled polymatroid cone with `log|D| = 1` and `log|Q_A|` a free
/// non-negative variable; the claim holds iff the optimum is at most `c`.
pub fn verify_tradeoff(rule: &RuleShape, stats: &Stats, claim: &SymbolicTradeoff) -> bool {
    assert_eq!(
        rule.num_vars, stats.num_vars,
        "rule/stats variable mismatch"
    );
    let n = stats.num_vars;
    let block = PolyVars::block_len(n);
    let tmin = 2 * block;
    let smin = 2 * block + 1;
    let qvar = 2 * block + 2;
    let (mut lp, pre, online) = base_lp(stats, 3, Some(qvar), Rat::ZERO);

    if !rule.t_targets.is_empty() {
        lp.set_objective(tmin, claim.t_exp);
        for b in &rule.t_targets {
            let mut row = vec![(tmin, Rat::ONE)];
            online.push(&mut row, -Rat::ONE, *b);
            lp.add_constraint(row, Relation::Le, Rat::ZERO);
        }
    }
    if !rule.s_targets.is_empty() {
        lp.set_objective(smin, claim.s_exp);
        for b in &rule.s_targets {
            let mut row = vec![(smin, Rat::ONE)];
            pre.push(&mut row, -Rat::ONE, *b);
            lp.add_constraint(row, Relation::Le, Rat::ZERO);
        }
    }
    lp.set_objective(qvar, -claim.q_exp);
    match lp.solve() {
        LpOutcome::Optimal { value, .. } => value <= claim.d_exp,
        LpOutcome::Unbounded => false,
        LpOutcome::Infeasible => unreachable!("the coupled cone contains 0"),
    }
}

/// Whether a claimed tradeoff is *tight* in the `|D|` exponent: the claim
/// holds, but lowering the `|D|` exponent by `epsilon` breaks it.
pub fn is_tight(rule: &RuleShape, stats: &Stats, claim: &SymbolicTradeoff, epsilon: Rat) -> bool {
    if !verify_tradeoff(rule, stats, claim) {
        return false;
    }
    let weaker = SymbolicTradeoff {
        d_exp: claim.d_exp - epsilon,
        ..*claim
    };
    !verify_tradeoff(rule, stats, &weaker)
}

/// Samples the combined tradeoff curve of a *set* of rules: at each space
/// budget, the answering time is the maximum over the rules (every rule
/// must be answered; Section 4.3).
pub fn combined_curve(
    rules: &[RuleShape],
    stats: &Stats,
    sigmas: &[Rat],
    log_q: Rat,
) -> TradeoffCurve {
    let mut points = Vec::with_capacity(sigmas.len());
    for &sigma in sigmas {
        let mut worst = Rat::ZERO;
        for rule in rules {
            let tau = time_exponent_at(rule, stats, sigma, log_q)
                .expect("online time should be bounded under the given statistics");
            worst = worst.max(tau);
        }
        points.push(TradeoffPoint {
            space: sigma,
            time: worst,
        });
    }
    points.sort_by(|a, b| a.space.cmp(&b.space));
    TradeoffCurve { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::rat::rat;
    use cqap_common::vars;
    use cqap_query::families;
    use cqap_relation::Relation;

    fn two_reach_rule_and_stats() -> (RuleShape, Stats) {
        let q = families::k_path_distinct(2);
        let stats = Stats::uniform_for_cqap(&q);
        // T123 ∨ S13 — the only rule of the Section 5 running example.
        let rule = RuleShape::new(3, vec![vars![1, 3]], vec![vars![1, 2, 3]]);
        (rule, stats)
    }

    #[test]
    fn stats_construction() {
        let q = families::k_path_distinct(3);
        let stats = Stats::uniform_for_cqap(&q);
        assert_eq!(stats.dc.len(), 3);
        assert_eq!(stats.ac.len(), 1);
        assert_eq!(stats.ac[0].of, vars![1, 4]);
        // Each binary cardinality constraint spawns two split pairs.
        assert_eq!(stats.split_constraints().len(), 6);
    }

    #[test]
    fn section5_tradeoff_s_t2_le_d2_q2() {
        let (rule, stats) = two_reach_rule_and_stats();
        assert_eq!(rule.label(), "T123 ∨ S13");
        // S·T² ≾ |D|²·|Q|² (Section 5 / Example E.6).
        let claim = SymbolicTradeoff::new(1, 2, 2, 2);
        assert!(verify_tradeoff(&rule, &stats, &claim));
        assert!(is_tight(&rule, &stats, &claim, rat(1, 10)));
        // The stronger S·T² ≾ |D|^{3/2} is false.
        let too_strong = SymbolicTradeoff {
            d_exp: rat(3, 2),
            ..claim
        };
        assert!(!verify_tradeoff(&rule, &stats, &too_strong));
    }

    #[test]
    fn section5_obj_sweep() {
        let (rule, stats) = two_reach_rule_and_stats();
        // |Q| = 1: S·T² ≾ |D|² means τ(σ) = (2 − σ)/2 until it hits 0.
        assert_eq!(
            time_exponent_at(&rule, &stats, Rat::ZERO, Rat::ZERO),
            Some(Rat::ONE)
        );
        assert_eq!(
            time_exponent_at(&rule, &stats, Rat::ONE, Rat::ZERO),
            Some(rat(1, 2))
        );
        assert_eq!(
            time_exponent_at(&rule, &stats, rat(3, 2), Rat::ZERO),
            Some(rat(1, 4))
        );
        assert_eq!(
            time_exponent_at(&rule, &stats, Rat::int(2), Rat::ZERO),
            Some(Rat::ZERO)
        );
    }

    #[test]
    fn square_query_tradeoff() {
        // Example 5.2 / E.5: S·T² ≾ |D|²·|Q|² for both rules of the square
        // CQAP.
        let q = families::square(true);
        let stats = Stats::uniform_for_cqap(&q);
        let rule1 = RuleShape::new(4, vec![vars![1, 3]], vec![vars![1, 3, 4]]);
        let rule2 = RuleShape::new(4, vec![vars![1, 3]], vec![vars![1, 2, 3]]);
        let claim = SymbolicTradeoff::new(1, 2, 2, 2);
        assert!(verify_tradeoff(&rule1, &stats, &claim));
        assert!(verify_tradeoff(&rule2, &stats, &claim));
        assert!(is_tight(&rule1, &stats, &claim, rat(1, 10)));
    }

    #[test]
    fn k_set_intersection_tradeoffs() {
        // Section 6.1 (non-Boolean k-set intersection, S-target over the
        // full head [k+1]): S·T^{k−1} ≾ |D|^k · |Q|^{k−1}.
        for k in 2..=3usize {
            let q = families::k_set_intersection(k);
            let stats = Stats::uniform_for_cqap(&q);
            let full = VarSet::prefix(k + 1);
            let rule = RuleShape::new(k + 1, vec![full], vec![full]);
            let ki = k as i64;
            assert!(verify_tradeoff(
                &rule,
                &stats,
                &SymbolicTradeoff::new(1, ki - 1, ki, ki - 1)
            ));
            // But S·T^{k−1} ≾ |D|^{k−1}·|Q|^{k−1} is too strong.
            assert!(!verify_tradeoff(
                &rule,
                &stats,
                &SymbolicTradeoff::new(1, ki - 1, ki - 1, ki - 1)
            ));
        }
    }

    #[test]
    fn k_set_disjointness_edge_cover_tradeoff() {
        // Example 6.2 (Boolean k-set disjointness, S-target over the access
        // pattern A = [k]): S·T^k ≾ |D|^k · |Q|^k from the all-ones edge
        // cover with slack k (Theorem 6.1).
        for k in 2..=3usize {
            let q = families::k_set_disjointness(k);
            let stats = Stats::uniform_for_cqap(&q);
            let access = VarSet::prefix(k);
            let full = VarSet::prefix(k + 1);
            let rule = RuleShape::new(k + 1, vec![access], vec![full]);
            let ki = k as i64;
            assert!(verify_tradeoff(
                &rule,
                &stats,
                &SymbolicTradeoff::new(1, ki, ki, ki)
            ));
        }
    }

    #[test]
    fn example_63_tree_decomposition_tradeoff() {
        // Example 6.3: 4-reachability via the decomposition
        // {x1,x2,x4,x5} → {x2,x3,x4} gives S^{3/2}·T ≾ |Q|·|D|³.
        let q = families::k_path_distinct(4);
        let stats = Stats::uniform_for_cqap(&q);
        let rule = RuleShape::new(5, vec![vars![1, 5], vars![2, 4]], vec![vars![2, 3, 4]]);
        let claim = SymbolicTradeoff {
            s_exp: rat(3, 2),
            t_exp: Rat::ONE,
            d_exp: Rat::int(3),
            q_exp: Rat::ONE,
        };
        assert!(verify_tradeoff(&rule, &stats, &claim));
    }

    #[test]
    fn monotone_combined_curve() {
        let (rule, stats) = two_reach_rule_and_stats();
        let sigmas: Vec<Rat> = (0..=8).map(|i| rat(i, 4)).collect();
        let curve = combined_curve(std::slice::from_ref(&rule), &stats, &sigmas, Rat::ZERO);
        assert_eq!(curve.points.len(), 9);
        assert!(curve.is_monotone());
        assert_eq!(curve.time_at(Rat::int(2)), Some(Rat::ZERO));
    }

    #[test]
    fn rule_with_no_t_targets_answers_in_preprocessing() {
        let (_, stats) = two_reach_rule_and_stats();
        let rule = RuleShape::new(3, vec![vars![1, 3]], vec![]);
        assert_eq!(
            time_exponent_at(&rule, &stats, Rat::ZERO, Rat::ZERO),
            Some(Rat::ZERO)
        );
    }

    /// The `DC` bound of `(on, of)`, if present.
    fn dc_bound(stats: &Stats, on: VarSet, of: VarSet) -> Option<Rat> {
        stats
            .dc
            .iter()
            .find(|c| c.on == on && c.of == of)
            .map(|c| c.size.d)
    }

    /// A database holding one binary relation per `(name, tuples)`, each
    /// stored over the columns `(x1, x2)`.
    fn binary_db(relations: &[(&str, &[(u64, u64)])]) -> Database {
        let mut db = Database::new();
        for (name, tuples) in relations {
            db.add_relation(Relation::binary(
                name.to_string(),
                0,
                1,
                tuples.iter().copied(),
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn best_constraint_assumption() {
        let mut stats = Stats::default();
        stats.add_dc(vars![1], vars![1, 2], Rat::ONE);
        stats.add_dc(vars![1], vars![1, 2], rat(1, 4));
        stats.add_dc(vars![1], vars![1, 2], rat(1, 2));
        assert_eq!(stats.dc.len(), 1);
        assert_eq!(dc_bound(&stats, vars![1], vars![1, 2]), Some(rat(1, 4)));
    }

    #[test]
    fn measured_from_a_relation() {
        // R1(x1, x2) over |D| = |R1| = 4: out-degree 3, in-degree 2.
        let q = families::k_path_distinct(1);
        let db = binary_db(&[("R1", &[(1, 10), (1, 11), (1, 12), (2, 10)])]);
        let stats = Stats::measured(&q, &db).unwrap();
        assert_eq!(stats.dc.len(), 5);
        assert_eq!(stats.ac.len(), 1);
        let bound = |on, of| dc_bound(&stats, on, of).unwrap();
        // N = |D| gives exactly 1.
        assert_eq!(bound(VarSet::EMPTY, vars![1, 2]), Rat::ONE);
        // 64 · ln 3 / ln 4 ≈ 50.7 rounds up to 51; 2 = 4^{1/2} exactly.
        assert_eq!(bound(vars![1], vars![1, 2]), rat(51, 64));
        assert_eq!(bound(vars![2], vars![1, 2]), rat(1, 2));
        assert_eq!(bound(VarSet::EMPTY, vars![1]), rat(1, 2));
        assert_eq!(bound(VarSet::EMPTY, vars![2]), rat(51, 64));

        assert_eq!(size_exponent(1, 4), Rat::ZERO);
        assert_eq!(size_exponent(4, 4), Rat::ONE);
        // 625^{48/64} = 125 and 1296^{48/64} = 216 exactly (in f64, 64 ·
        // ln n / ln |D| lands just above 48).
        assert_eq!(size_exponent(125, 625), rat(48, 64));
        assert_eq!(size_exponent(216, 1296), rat(48, 64));
        let empty = Stats::measured(&q, &binary_db(&[("R1", &[])])).unwrap();
        assert!(empty.dc.iter().all(|c| c.size.d.is_zero()));

        assert!(Stats::measured(&q, &binary_db(&[("R2", &[(1, 2)])])).is_err());
        let mut ternary = Database::new();
        let schema = cqap_relation::Schema::of([0, 1, 2]);
        ternary.add_relation(Relation::new("R1", schema)).unwrap();
        assert!(Stats::measured(&q, &ternary).is_err());
    }

    #[test]
    fn size_exponent_is_the_smallest_exact_upper_bound() {
        // `base^exp` in limbs, checked against `u128` past one limb.
        let power = |base: usize, exp: i128| {
            let mut limbs = vec![1];
            (0..exp).for_each(|_| mul_limbs(&mut limbs, base));
            limbs
        };
        assert_eq!(
            power(3, 50),
            [(3u128.pow(50) as u64), (3u128.pow(50) >> 64) as u64]
        );
        assert!(limbs_le(&power(2, 64), &power(2, 64)));
        assert!(!limbs_le(&power(2, 65), &power(2, 64)));
        for db_size in 2..128 {
            for n in 2..=db_size {
                let e = size_exponent(n, db_size);
                let k = (e.to_f64() * EXPONENT_DENOM as f64).round() as i128;
                assert_eq!(rat(k, EXPONENT_DENOM), e);
                let target = power(n, EXPONENT_DENOM);
                assert!(
                    limbs_le(&target, &power(db_size, k)),
                    "({n}, {db_size}) → {e}"
                );
                assert!(
                    !limbs_le(&target, &power(db_size, k - 1)),
                    "({n}, {db_size}) → {e}"
                );
                // Away from a multiple of 1/64, f64 rounds the same way.
                let x = EXPONENT_DENOM as f64 * (n as f64).ln() / (db_size as f64).ln();
                if (x - x.round()).abs() > 1e-6 {
                    assert_eq!(k, x.ceil() as i128, "({n}, {db_size})");
                }
            }
        }
    }

    #[test]
    fn measured_keeps_the_smallest_bound_across_atoms() {
        // 2-reach: |π_x2| is 1 in R1(x1, x2) and 4 = |D| in R2(x2, x3),
        // each stored over (x1, x2) and read by position.
        let q = families::k_path_distinct(2);
        let db = binary_db(&[
            ("R1", &[(1, 10), (2, 10), (3, 10), (4, 10)]),
            ("R2", &[(10, 1), (11, 1), (12, 1), (13, 1)]),
        ]);
        let stats = Stats::measured(&q, &db).unwrap();
        assert_eq!(dc_bound(&stats, VarSet::EMPTY, vars![2]), Some(Rat::ZERO));
        assert_eq!(dc_bound(&stats, VarSet::EMPTY, vars![1]), Some(Rat::ONE));
        assert_eq!(dc_bound(&stats, VarSet::EMPTY, vars![3]), Some(Rat::ZERO));
        assert_eq!(stats.dc.len(), 9);
    }

    #[test]
    fn symbolic_display() {
        let t = SymbolicTradeoff::new(1, 2, 2, 2);
        assert_eq!(format!("{t}"), "S·T^2 ≾ |D|^2·|Q|^2");
        let t = SymbolicTradeoff {
            s_exp: rat(3, 2),
            t_exp: Rat::ONE,
            d_exp: Rat::int(3),
            q_exp: Rat::ZERO,
        };
        assert_eq!(format!("{t}"), "S^3/2·T ≾ |D|^3");
    }
}
