//! Analytic experiments: regenerate the paper's tables and figures exactly.
//! Each returns the text printed below its section title.

use cqap_common::Rat;
use cqap_decomp::families as pmtd_families;
use cqap_decomp::Pmtd;
use cqap_entropy::tradeoff::{verify_tradeoff, Stats, SymbolicTradeoff};
use cqap_panda::analysis::{
    default_sigma_grid, example_e8_4reach, figure4a_curve, figure4b_curve, goldstein_baseline,
    table1_3reach,
};
use cqap_panda::rules::minimal_rules;
use cqap_query::families as query_families;

/// The PMTD inventory of one of the paper's figures.
fn inventory(cqap: &cqap_query::Cqap, pmtds: &[Pmtd]) -> String {
    let mut out = format!("CQAP: {cqap}\n");
    for (i, p) in pmtds.iter().enumerate() {
        out += &format!("  PMTD {}: {}\n", i + 1, p.summary());
        for t in p.td().top_down_order() {
            let (bag, view) = (p.td().bag(t), p.view(t));
            out += &format!("      node {t}: bag {bag}, view {view:?}\n");
        }
    }
    out
}

/// Figure 1: the three PMTDs for the 3-reachability CQAP.
pub(crate) fn figure1() -> String {
    let (cqap, pmtds) = pmtd_families::pmtds_3reach_fig1().expect("paper PMTDs");
    inventory(&cqap, &pmtds)
}

/// Figure 2: the two PMTDs for the square CQAP.
pub(crate) fn figure2() -> String {
    let (cqap, pmtds) = pmtd_families::pmtds_square().expect("paper PMTDs");
    inventory(&cqap, &pmtds)
}

/// Figure 3: all five non-redundant, non-dominant PMTDs for 3-reachability.
pub(crate) fn figure3() -> String {
    let (cqap, pmtds) = pmtd_families::pmtds_3reach_all().expect("paper PMTDs");
    let mut out = inventory(&cqap, &pmtds);
    out += "  generated 2-phase disjunctive rules (after pruning):\n";
    for r in minimal_rules(&pmtds) {
        out += &format!("    {} ← body\n", r.label());
    }
    out
}

/// Table 1: the four rules for 3-reachability and their verified tradeoffs.
pub(crate) fn table1() -> String {
    let (cqap, reports) = table1_3reach().expect("Table 1 rules generate");
    let mut out = format!("CQAP: {cqap}\n");
    let (head, tradeoff, verified, tight) = ("rule head", "tradeoff", "verified", "tight");
    out += &format!("{head:<38} {tradeoff:<28} {verified:>10} {tight:>8}\n");
    for report in &reports {
        for (i, claim) in report.claimed.iter().enumerate() {
            let head = if i == 0 { report.label.as_str() } else { "" };
            let (claim, verified, tight) = (claim.to_string(), report.verified[i], report.tight[i]);
            out += &format!("{head:<38} {claim:<28} {verified:>10} {tight:>8}\n");
        }
    }
    out
}

/// Figures 4a/4b: the combined tradeoff curves vs. the prior baseline.
pub(crate) fn figure4(k: usize) -> String {
    let sigmas = default_sigma_grid();
    let curve = match k {
        3 => figure4a_curve(&sigmas),
        4 => figure4b_curve(&sigmas),
        _ => unreachable!("Figure 4 plots 3- and 4-reachability"),
    };
    let mut out = format!(
        "{:>10} {:>16} {:>16} {:>10}\n",
        "log|D| S", "log|D| T (ours)", "log|D| T (SOTA)", "improved"
    );
    for p in &curve.expect("LP sweep").points {
        let base = goldstein_baseline(k, p.space);
        let improved = if p.time < base { "yes" } else { "" };
        let (space, time, base) = (p.space.to_string(), p.time.to_string(), base.to_string());
        out += &format!("{space:>10} {time:>16} {base:>16} {improved:>10}\n");
    }
    out
}

/// Example E.8: representative 4-reachability rules and their tradeoffs.
pub(crate) fn example_e8() -> String {
    let (_, reports) = example_e8_4reach().expect("E.8 rules");
    let mut out = String::new();
    for report in &reports {
        out += &format!("  rule {}\n", report.label);
        for (claim, verified) in report.claimed.iter().zip(&report.verified) {
            out += &format!("    {:<30} verified = {verified}\n", claim.to_string());
        }
    }
    out
}

/// Example 6.3 / Section 6.2–6.3: tree-decomposition and edge-cover
/// tradeoffs verified against the LP oracle.
pub(crate) fn section6_examples() -> String {
    let mut out = String::new();
    // Example 6.2: Boolean k-set disjointness, S·T^k ≾ |D|^k |Q|^k.
    for k in 2..=3i64 {
        let cqap = query_families::k_set_disjointness(k as usize);
        let stats = Stats::uniform_for_cqap(&cqap);
        let rule = cqap_entropy::RuleShape::new(
            k as usize + 1,
            vec![cqap_common::VarSet::prefix(k as usize)],
            vec![cqap_common::VarSet::prefix(k as usize + 1)],
        );
        let claim = SymbolicTradeoff::new(1, k, k, k);
        let verified = verify_tradeoff(&rule, &stats, &claim);
        let claim = claim.to_string();
        out += &format!("  {k}-set disjointness  {claim:<26} verified = {verified}\n");
    }
    // Example 6.3: 4-reachability via one decomposition, S^{3/2}·T ≾ |Q|·|D|³.
    let cqap = query_families::k_path_distinct(4);
    let stats = Stats::uniform_for_cqap(&cqap);
    let rule = cqap_entropy::RuleShape::new(
        5,
        vec![
            cqap_common::VarSet::from_iter([0, 4]),
            cqap_common::VarSet::from_iter([1, 3]),
        ],
        vec![cqap_common::VarSet::from_iter([1, 2, 3])],
    );
    let claim = SymbolicTradeoff {
        s_exp: Rat::new(3, 2),
        t_exp: Rat::ONE,
        d_exp: Rat::int(3),
        q_exp: Rat::ONE,
    };
    let verified = verify_tradeoff(&rule, &stats, &claim);
    let claim = claim.to_string();
    out += &format!("  4-reach via TD (Ex. 6.3)  {claim:<22} verified = {verified}\n");
    out
}

/// Appendix F: hierarchical CQAP tradeoffs (baseline recovered and improved).
///
/// Warning: this is the only 7-variable LP in the suite; with the dense
/// exact-rational simplex it can run for a very long time (tens of minutes
/// or more). It is therefore not part of the `all` experiment set.
pub(crate) fn appendix_f() -> String {
    let cqap = query_families::hierarchical_two_level();
    let stats = Stats::uniform_for_cqap(&cqap);
    // The rule T0(Z,x) ∨ S_Z(Z): T-target {x} ∪ Z, S-target Z.
    let z: cqap_common::VarSet = cqap.access();
    let rule = cqap_entropy::RuleShape::new(7, vec![z], vec![z.insert(0)]);
    let mut out = String::new();
    for (name, claim) in [
        (
            "baseline  S·T³ ≾ |D|⁴·|Q|³",
            SymbolicTradeoff::new(1, 3, 4, 3),
        ),
        (
            "improved  S·T⁴ ≾ |D|⁴·|Q|⁴",
            SymbolicTradeoff::new(1, 4, 4, 4),
        ),
    ] {
        let verified = verify_tradeoff(&rule, &stats, &claim);
        out += &format!("  {name:<34} verified = {verified}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printers_do_not_panic() {
        for text in [figure1(), figure2(), table1(), section6_examples()] {
            assert!(!text.is_empty());
        }
    }
}
