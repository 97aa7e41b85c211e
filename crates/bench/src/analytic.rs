//! Analytic experiments: regenerate the paper's tables and figures exactly.

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

/// Prints the PMTD inventory of one of the paper's figures.
pub(crate) fn print_pmtds(title: &str, cqap: &cqap_query::Cqap, pmtds: &[Pmtd]) {
    println!("\n== {title} ==");
    println!("CQAP: {cqap}");
    for (i, p) in pmtds.iter().enumerate() {
        println!("  PMTD {}: {}", i + 1, p.summary());
        for t in p.td().top_down_order() {
            println!(
                "      node {t}: bag {}, view {:?}",
                p.td().bag(t),
                p.view(t)
            );
        }
    }
}

/// Figure 1: the three PMTDs for the 3-reachability CQAP.
pub fn figure1() {
    let (cqap, pmtds) = pmtd_families::pmtds_3reach_fig1().expect("paper PMTDs");
    print_pmtds("Figure 1: PMTDs for the 3-reachability CQAP", &cqap, &pmtds);
}

/// Figure 2: the two PMTDs for the square CQAP.
pub fn figure2() {
    let (cqap, pmtds) = pmtd_families::pmtds_square().expect("paper PMTDs");
    print_pmtds("Figure 2: PMTDs for the square CQAP", &cqap, &pmtds);
}

/// Figure 3: all five non-redundant, non-dominant PMTDs for 3-reachability.
pub fn figure3() {
    let (cqap, pmtds) = pmtd_families::pmtds_3reach_all().expect("paper PMTDs");
    print_pmtds("Figure 3: all PMTDs for the 3-reachability CQAP", &cqap, &pmtds);
    let rules = minimal_rules(&pmtds);
    println!("  generated 2-phase disjunctive rules (after pruning):");
    for r in rules {
        println!("    {} ← body", r.label());
    }
}

/// Table 1: the four rules for 3-reachability and their verified tradeoffs.
pub fn table1() {
    let (cqap, reports) = table1_3reach().expect("Table 1 rules generate");
    println!("\n== Table 1: 2-phase disjunctive rules for 3-reachability ==");
    println!("CQAP: {cqap}");
    println!("{:<38} {:<28} {:>10} {:>8}", "rule head", "tradeoff", "verified", "tight");
    for report in &reports {
        for (i, claim) in report.claimed.iter().enumerate() {
            println!(
                "{:<38} {:<28} {:>10} {:>8}",
                if i == 0 { report.label.as_str() } else { "" },
                claim.to_string(),
                report.verified[i],
                report.tight[i]
            );
        }
    }
}

/// Figures 4a/4b: the combined tradeoff curves vs. the prior baseline.
pub fn figure4(k: usize) {
    assert!(k == 3 || k == 4);
    let sigmas = default_sigma_grid();
    let curve = if k == 3 {
        figure4a_curve(&sigmas).expect("LP sweep")
    } else {
        figure4b_curve(&sigmas).expect("LP sweep")
    };
    println!("\n== Figure 4{}: {k}-reachability tradeoff (|Q_A| = 1) ==", if k == 3 { 'a' } else { 'b' });
    println!(
        "{:>10} {:>16} {:>16} {:>10}",
        "log|D| S", "log|D| T (ours)", "log|D| T (SOTA)", "improved"
    );
    for p in &curve.points {
        let base = goldstein_baseline(k, p.space);
        println!(
            "{:>10} {:>16} {:>16} {:>10}",
            p.space.to_string(),
            p.time.to_string(),
            base.to_string(),
            if p.time < base { "yes" } else { "" }
        );
    }
}

/// Example E.8: representative 4-reachability rules and their tradeoffs.
pub fn example_e8() {
    let (_, reports) = example_e8_4reach().expect("E.8 rules");
    println!("\n== Example E.8: 4-reachability rules ==");
    for report in &reports {
        println!("  rule {}", report.label);
        for (i, claim) in report.claimed.iter().enumerate() {
            println!(
                "    {:<30} verified = {}",
                claim.to_string(),
                report.verified[i]
            );
        }
    }
}

/// Example 6.3 / Section 6.2–6.3: tree-decomposition and edge-cover
/// tradeoffs verified against the LP oracle.
pub fn section6_examples() {
    println!("\n== Section 6.2/6.3 tradeoffs ==");
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
        println!(
            "  {k}-set disjointness  {:<26} verified = {}",
            claim.to_string(),
            verify_tradeoff(&rule, &stats, &claim)
        );
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
    println!(
        "  4-reach via TD (Ex. 6.3)  {:<22} verified = {}",
        claim.to_string(),
        verify_tradeoff(&rule, &stats, &claim)
    );
}

/// Appendix F: hierarchical CQAP tradeoffs (baseline recovered and improved).
///
/// Warning: this is the only 7-variable LP in the suite; with the dense
/// exact-rational simplex it can run for a very long time (tens of minutes
/// or more). It is therefore not part of the `all` experiment set.
pub fn appendix_f() {
    println!("\n== Appendix F: Boolean hierarchical CQAP ==");
    let cqap = query_families::hierarchical_two_level();
    let stats = Stats::uniform_for_cqap(&cqap);
    // The rule T0(Z,x) ∨ S_Z(Z): T-target {x} ∪ Z, S-target Z.
    let z: cqap_common::VarSet = cqap.access();
    let rule = cqap_entropy::RuleShape::new(7, vec![z], vec![z.insert(0)]);
    for (name, claim) in [
        ("baseline  S·T³ ≾ |D|⁴·|Q|³", SymbolicTradeoff::new(1, 3, 4, 3)),
        ("improved  S·T⁴ ≾ |D|⁴·|Q|⁴", SymbolicTradeoff::new(1, 4, 4, 4)),
    ] {
        println!(
            "  {name:<34} verified = {}",
            verify_tradeoff(&rule, &stats, &claim)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printers_do_not_panic() {
        figure1();
        figure2();
        table1();
        section6_examples();
    }
}
