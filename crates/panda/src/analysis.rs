//! Analytic reproduction of the paper's tables and figures.
//!
//! * [`table1_3reach`] — Table 1: the four 2-phase disjunctive rules for the
//!   3-reachability CQAP together with their intrinsic tradeoffs, each
//!   verified (and checked tight in the `|D|` exponent) against the LP
//!   oracle of `cqap-entropy`.
//! * [`figure4a_curve`] / [`figure4b_curve`] — the combined space-time
//!   tradeoff curves of Figures 4a and 4b for 3- and 4-reachability at
//!   `|Q_A| = 1`, sampled exactly (rational arithmetic) on a grid of space
//!   budgets.
//! * [`goldstein_baseline`] — the prior state-of-the-art tradeoff
//!   `S · T^{2/(k−1)} = O(|D|²)` of Goldstein et al., the brown baseline of
//!   both figures.

use crate::rules::{minimal_rules, TwoPhaseRule};
use cqap_common::{CqapError, Rat, Result};
use cqap_decomp::families as pmtd_families;
use cqap_entropy::tradeoff::{
    combined_curve, is_tight, verify_tradeoff, Stats, SymbolicTradeoff, TradeoffCurve,
};
use cqap_query::Cqap;

/// One row of a rule/tradeoff report (one rule of Table 1, or one rule of
/// the Appendix E analysis for 4-reachability).
#[derive(Clone, Debug)]
pub struct RuleReport {
    /// Paper-style rule label, e.g. `T134 ∨ T124 ∨ S14`.
    pub label: String,
    /// The underlying rule.
    pub rule: TwoPhaseRule,
    /// The tradeoffs the paper claims for this rule.
    pub claimed: Vec<SymbolicTradeoff>,
    /// Whether each claim was verified by the LP oracle.
    pub verified: Vec<bool>,
    /// Whether each claim is tight in the `|D|` exponent (lowering the
    /// exponent by 1/10 breaks it).
    pub tight: Vec<bool>,
}

impl RuleReport {
    /// Whether every claimed tradeoff was verified.
    pub fn all_verified(&self) -> bool {
        self.verified.iter().all(|&v| v)
    }
}

fn report_for(
    rule: &TwoPhaseRule,
    stats: &Stats,
    claims: Vec<SymbolicTradeoff>,
) -> RuleReport {
    let verified = claims
        .iter()
        .map(|c| verify_tradeoff(&rule.shape, stats, c))
        .collect();
    let tight = claims
        .iter()
        .map(|c| is_tight(&rule.shape, stats, c, Rat::new(1, 10)))
        .collect();
    RuleReport {
        label: rule.label(),
        rule: rule.clone(),
        claimed: claims,
        verified,
        tight,
    }
}

fn find_rule<'a>(rules: &'a [TwoPhaseRule], label: &str) -> Result<&'a TwoPhaseRule> {
    rules
        .iter()
        .find(|r| r.label() == label)
        .ok_or_else(|| CqapError::Other(format!("expected rule {label} was not generated")))
}

/// Table 1: the four 2-phase disjunctive rules for 3-reachability generated
/// from the Figure 3 PMTD set, with the paper's claimed tradeoffs verified.
///
/// | rule | head | tradeoff |
/// |------|------|----------|
/// | ρ1 | `T134 ∨ T124 ∨ S14` | `S·T² ≾ |D|²·|Q|²` |
/// | ρ2 | `T123 ∨ S13 ∨ T124 ∨ S14` | `S²·T³ ≾ |D|⁴·|Q|³`, `T ≾ |D|·|Q|` |
/// | ρ3 | `T134 ∨ T234 ∨ S24 ∨ S14` | `S²·T³ ≾ |D|⁴·|Q|³`, `T ≾ |D|·|Q|` |
/// | ρ4 | `T123 ∨ S13 ∨ T234 ∨ S24 ∨ S14` | `S·T ≾ |D|²·|Q|`, `S⁴·T ≾ |D|⁶·|Q|`, `T ≾ |D|·|Q|` |
pub fn table1_3reach() -> Result<(Cqap, Vec<RuleReport>)> {
    let (cqap, pmtds) = pmtd_families::pmtds_3reach_all()?;
    let stats = Stats::uniform_for_cqap(&cqap);
    let rules = minimal_rules(&pmtds);

    let rho1 = find_rule(&rules, "T124 ∨ T134 ∨ S14")?;
    let rho2 = find_rule(&rules, "T123 ∨ T124 ∨ S13 ∨ S14")?;
    let rho3 = find_rule(&rules, "T134 ∨ T234 ∨ S14 ∨ S24")?;
    let rho4 = find_rule(&rules, "T123 ∨ T234 ∨ S13 ∨ S14 ∨ S24")?;

    let reports = vec![
        report_for(rho1, &stats, vec![SymbolicTradeoff::new(1, 2, 2, 2)]),
        report_for(
            rho2,
            &stats,
            vec![
                SymbolicTradeoff::new(2, 3, 4, 3),
                SymbolicTradeoff::new(0, 1, 1, 1),
            ],
        ),
        report_for(
            rho3,
            &stats,
            vec![
                SymbolicTradeoff::new(2, 3, 4, 3),
                SymbolicTradeoff::new(0, 1, 1, 1),
            ],
        ),
        report_for(
            rho4,
            &stats,
            vec![
                SymbolicTradeoff::new(1, 1, 2, 1),
                SymbolicTradeoff::new(4, 1, 6, 1),
                SymbolicTradeoff::new(0, 1, 1, 1),
            ],
        ),
    ];
    Ok((cqap, reports))
}

/// The rule reports of Example E.8 for 4-reachability: the representative
/// rules ρ1, ρ2, ρ4 (ρ3/ρ5 are symmetric) with the paper's claimed
/// tradeoffs.
pub fn example_e8_4reach() -> Result<(Cqap, Vec<RuleReport>)> {
    let (cqap, pmtds) = pmtd_families::pmtds_4reach()?;
    let stats = Stats::uniform_for_cqap(&cqap);
    let rules = minimal_rules(&pmtds);

    let _ = &rules; // the generated set is consulted by the bench binaries
    let shape = |s: &[&[usize]], t: &[&[usize]]| {
        let to_set = |vars: &[usize]| {
            cqap_common::VarSet::from_iter(vars.iter().map(|&v| v - 1))
        };
        cqap_entropy::RuleShape::new(
            5,
            s.iter().map(|v| to_set(v)).collect(),
            t.iter().map(|v| to_set(v)).collect(),
        )
    };
    let as_rule = |shape: cqap_entropy::RuleShape| TwoPhaseRule {
        shape,
        choice: Vec::new(),
    };

    // ρ1 (Example E.8): any rule containing a "wide" online target; the
    // canonical representative is T1245 ∨ S15.
    let rho1 = crate::rules::rule_of_choice(&[pmtds[4].clone(), pmtds[10].clone()], &[0, 0]);
    // ρ2: T1235 ∨ T1345 ∨ (T234 ∨ S24 ∨ S25 ∨ S14 ∨ S15).
    let rho2 = as_rule(shape(
        &[&[2, 4], &[2, 5], &[1, 4], &[1, 5]],
        &[&[1, 2, 3, 5], &[1, 3, 4, 5], &[2, 3, 4]],
    ));
    // ρ4: T345 ∨ S35 ∨ (T234 ∨ S24 ∨ S25 ∨ S14 ∨ S15).
    let rho4 = as_rule(shape(
        &[&[3, 5], &[2, 4], &[2, 5], &[1, 4], &[1, 5]],
        &[&[3, 4, 5], &[2, 3, 4]],
    ));

    let reports = vec![
        report_for(&rho1, &stats, vec![SymbolicTradeoff::new(1, 1, 2, 1)]),
        report_for(&rho2, &stats, vec![SymbolicTradeoff::new(2, 2, 4, 2)]),
        report_for(
            &rho4,
            &stats,
            vec![
                SymbolicTradeoff::new(6, 5, 12, 5),
                SymbolicTradeoff::new(8, 3, 13, 3),
            ],
        ),
    ];
    Ok((cqap, reports))
}

/// The prior state-of-the-art tradeoff of Goldstein et al. for
/// k-reachability, `S · T^{2/(k−1)} = O(|D|²)`, expressed as the answering
/// time exponent at space budget `S = |D|^σ` (clamped at 0).
pub fn goldstein_baseline(k: usize, sigma: Rat) -> Rat {
    assert!(k >= 2);
    // τ = (2 − σ) · (k − 1) / 2.
    let tau = (Rat::int(2) - sigma) * Rat::new((k as i128) - 1, 2);
    tau.max(Rat::ZERO)
}

/// Default space-budget grid for the Figure 4 curves: `σ = 0, 1/8, ..., 2`.
pub fn default_sigma_grid() -> Vec<Rat> {
    (0..=16).map(|i| Rat::new(i, 8)).collect()
}

/// Figure 4a: the combined space-time tradeoff curve for 3-reachability at
/// `|Q_A| = 1`, computed from the rules generated by the Figure 3 PMTD set.
pub fn figure4a_curve(sigmas: &[Rat]) -> Result<TradeoffCurve> {
    let (cqap, pmtds) = pmtd_families::pmtds_3reach_all()?;
    let stats = Stats::uniform_for_cqap(&cqap);
    let rules = minimal_rules(&pmtds);
    let shapes: Vec<_> = rules.iter().map(|r| r.shape.clone()).collect();
    Ok(combined_curve(&shapes, &stats, sigmas, Rat::ZERO))
}

/// Figure 4b: the combined space-time tradeoff curve for 4-reachability at
/// `|Q_A| = 1`, computed from the rules generated by the Example E.8 PMTD
/// set.
pub fn figure4b_curve(sigmas: &[Rat]) -> Result<TradeoffCurve> {
    let (cqap, pmtds) = pmtd_families::pmtds_4reach()?;
    let stats = Stats::uniform_for_cqap(&cqap);
    let rules = minimal_rules(&pmtds);
    let shapes: Vec<_> = rules.iter().map(|r| r.shape.clone()).collect();
    Ok(combined_curve(&shapes, &stats, sigmas, Rat::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_all_claims_verified() {
        let (_, reports) = table1_3reach().unwrap();
        assert_eq!(reports.len(), 4);
        for report in &reports {
            assert!(
                report.all_verified(),
                "claims of {} not verified: {:?}",
                report.label,
                report.verified
            );
        }
        // The headline ρ1 tradeoff S·T² ≾ |D|²·|Q|² is tight.
        assert!(reports[0].tight[0]);
    }

    #[test]
    fn goldstein_baseline_values() {
        // k = 3: S·T = |D|².
        assert_eq!(goldstein_baseline(3, Rat::ZERO), Rat::int(2));
        assert_eq!(goldstein_baseline(3, Rat::ONE), Rat::ONE);
        assert_eq!(goldstein_baseline(3, Rat::int(2)), Rat::ZERO);
        assert_eq!(goldstein_baseline(3, Rat::int(3)), Rat::ZERO);
        // k = 4: S·T^{2/3} = |D|² ⇒ τ = 3(2−σ)/2.
        assert_eq!(goldstein_baseline(4, Rat::ONE), Rat::new(3, 2));
    }

    #[test]
    fn figure4a_matches_paper_shape() {
        let sigmas: Vec<Rat> = vec![
            Rat::ZERO,
            Rat::ONE,
            Rat::new(5, 4),
            Rat::new(3, 2),
            Rat::new(7, 4),
            Rat::int(2),
        ];
        let curve = figure4a_curve(&sigmas).unwrap();
        assert!(curve.is_monotone());
        // At S = |D|² everything is materializable: T = O(1).
        assert_eq!(curve.time_at(Rat::int(2)), Some(Rat::ZERO));
        // At S = |D| the curve meets the baseline (τ = 1).
        assert_eq!(curve.time_at(Rat::ONE), Some(Rat::ONE));
        // Not worse than the S·T = |D|² baseline anywhere on the grid.
        for p in &curve.points {
            assert!(p.time <= goldstein_baseline(3, p.space));
        }
        // Strictly better than the baseline in the upper-space regime (the
        // paper's headline improvement for 3-reachability, Figure 4a).
        for &sigma in &[Rat::new(3, 2), Rat::new(7, 4)] {
            let ours = curve.time_at(sigma).unwrap();
            let baseline = goldstein_baseline(3, sigma);
            assert!(
                ours < baseline,
                "expected improvement at σ = {sigma}: ours {ours} vs baseline {baseline}"
            );
        }
    }

    #[test]
    fn example_e8_rho1_verified() {
        let (_, reports) = example_e8_4reach().unwrap();
        assert!(!reports.is_empty());
        // ρ1: S·T ≾ |D|²·|Q| must verify.
        assert_eq!(reports[0].label, "T1245 ∨ S15");
        assert!(reports[0].all_verified());
    }
}
