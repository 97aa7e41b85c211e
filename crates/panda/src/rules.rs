//! 2-phase disjunctive rules induced by a set of PMTDs (Section 4.2).

use cqap_common::VarSet;
use cqap_decomp::{Pmtd, ViewKind};
use cqap_entropy::RuleShape;
use std::fmt;

/// A 2-phase disjunctive rule (Definition 4.1), tracked together with the
/// PMTD views that generated each target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TwoPhaseRule {
    /// The rule's shape (S-target and T-target schemas), the form consumed
    /// by the tradeoff LP layer.
    pub shape: RuleShape,
    /// For every PMTD in the generating set, the node whose view this rule
    /// picked.
    pub choice: Vec<usize>,
}

impl TwoPhaseRule {
    /// Paper-style label, e.g. `T134 ∨ T124 ∨ S14`.
    pub fn label(&self) -> String {
        self.shape.label()
    }

    /// The rule's targets as `(kind, schema)` pairs, used for the
    /// subset-based pruning of Observation E.1.
    fn target_set(&self) -> Vec<(ViewKind, VarSet)> {
        let mut v: Vec<(ViewKind, VarSet)> = self
            .shape
            .s_targets
            .iter()
            .map(|&s| (ViewKind::S, s))
            .chain(self.shape.t_targets.iter().map(|&t| (ViewKind::T, t)))
            .collect();
        v.sort_by_key(|(k, s)| (matches!(k, ViewKind::T), s.0));
        v
    }

    /// Whether every target of `other` is also a target of `self`.
    fn contains_all_targets_of(&self, other: &TwoPhaseRule) -> bool {
        let mine = self.target_set();
        other.target_set().iter().all(|t| mine.contains(t))
    }
}

impl fmt::Display for TwoPhaseRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ← body", self.label())
    }
}

/// Builds the rule corresponding to one *choice* of a node (view) from every
/// PMTD in the set: an S-target for every chosen materialized view, a
/// T-target for every chosen online view. Empty view schemas (which only
/// occur in redundant PMTDs) are skipped.
pub(crate) fn rule_of_choice(pmtds: &[Pmtd], choice: &[usize]) -> TwoPhaseRule {
    assert_eq!(pmtds.len(), choice.len());
    let num_vars = pmtds
        .iter()
        .map(|p| p.td().all_vars().max_var().map_or(0, |v| v + 1))
        .max()
        .unwrap_or(0);
    let mut s_targets = Vec::new();
    let mut t_targets = Vec::new();
    for (pmtd, &node) in pmtds.iter().zip(choice) {
        let view = pmtd.view(node);
        if view.vars.is_empty() {
            continue;
        }
        match view.kind {
            ViewKind::S => s_targets.push(view.vars),
            ViewKind::T => t_targets.push(view.vars),
        }
    }
    TwoPhaseRule {
        shape: RuleShape::new(num_vars, s_targets, t_targets),
        choice: choice.to_vec(),
    }
}

/// Generates every 2-phase disjunctive rule induced by the PMTD set: the
/// cartesian product of view choices (Section 4.2), deduplicated by target
/// set.
pub(crate) fn generate_rules(pmtds: &[Pmtd]) -> Vec<TwoPhaseRule> {
    assert!(!pmtds.is_empty(), "rule generation needs at least one PMTD");
    let sizes: Vec<usize> = pmtds.iter().map(|p| p.td().num_nodes()).collect();
    let total: usize = sizes.iter().product();
    assert!(total <= 1 << 20, "PMTD set too large to enumerate");
    let mut rules: Vec<TwoPhaseRule> = Vec::new();
    let mut choice = vec![0usize; pmtds.len()];
    for mut idx in 0..total {
        for (i, &s) in sizes.iter().enumerate() {
            choice[i] = idx % s;
            idx /= s;
        }
        let rule = rule_of_choice(pmtds, &choice);
        if !rules.iter().any(|r| r.target_set() == rule.target_set()) {
            rules.push(rule);
        }
    }
    rules
}

/// Prunes the rule set down to the rules with inclusion-minimal target sets
/// (Observation E.1): a rule whose targets strictly contain another rule's
/// targets is "no harder" and can be ignored when combining tradeoffs.
pub(crate) fn prune_rules(rules: Vec<TwoPhaseRule>) -> Vec<TwoPhaseRule> {
    let mut keep = vec![true; rules.len()];
    for i in 0..rules.len() {
        for j in 0..rules.len() {
            if i != j
                && keep[i]
                && rules[i].contains_all_targets_of(&rules[j])
                && rules[i].target_set() != rules[j].target_set()
            {
                keep[i] = false;
            }
        }
    }
    rules
        .into_iter()
        .zip(keep)
        .filter_map(|(r, k)| k.then_some(r))
        .collect()
}

/// Convenience: generate-then-prune.
pub fn minimal_rules(pmtds: &[Pmtd]) -> Vec<TwoPhaseRule> {
    prune_rules(generate_rules(pmtds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_decomp::families as pf;

    #[test]
    fn example_42_rules_from_figure1() {
        // Example 4.2: the three PMTDs of Figure 1 yield four 2-phase
        // disjunctive rules (after removing redundant targets).
        let (_, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let rules = generate_rules(&pmtds);
        assert_eq!(rules.len(), 4);
        let labels: Vec<String> = rules.iter().map(TwoPhaseRule::label).collect();
        assert!(labels.contains(&"T134 ∨ S14".to_string()));
        assert!(labels.contains(&"T134 ∨ S13 ∨ S14".to_string()));
        assert!(labels.contains(&"T123 ∨ T134 ∨ S14".to_string()));
        assert!(labels.contains(&"T123 ∨ S13 ∨ S14".to_string()));
    }

    #[test]
    fn table1_rules_from_figure3() {
        // Section 6.4: the five PMTDs of Figure 3 generate 16 rules; after
        // discarding rules with strictly more targets, exactly the four
        // rules of Table 1 remain.
        let (_, pmtds) = pf::pmtds_3reach_all().unwrap();
        let all = generate_rules(&pmtds);
        assert!(all.len() <= 16);
        let minimal = prune_rules(all);
        assert_eq!(minimal.len(), 4);
        let labels: Vec<String> = minimal.iter().map(TwoPhaseRule::label).collect();
        assert!(labels.contains(&"T124 ∨ T134 ∨ S14".to_string()), "{labels:?}");
        assert!(
            labels.contains(&"T123 ∨ T124 ∨ S13 ∨ S14".to_string()),
            "{labels:?}"
        );
        assert!(
            labels.contains(&"T134 ∨ T234 ∨ S14 ∨ S24".to_string()),
            "{labels:?}"
        );
        assert!(
            labels.contains(&"T123 ∨ T234 ∨ S13 ∨ S14 ∨ S24".to_string()),
            "{labels:?}"
        );
    }

    #[test]
    fn square_and_kset_rules() {
        let (_, pmtds) = pf::pmtds_square().unwrap();
        let rules = minimal_rules(&pmtds);
        assert_eq!(rules.len(), 2);
        let labels: Vec<String> = rules.iter().map(TwoPhaseRule::label).collect();
        assert!(labels.contains(&"T134 ∨ S13".to_string()));
        assert!(labels.contains(&"T123 ∨ S13".to_string()));

        let (_, pmtds) = pf::pmtds_kset(3).unwrap();
        let rules = minimal_rules(&pmtds);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].label(), "T1234 ∨ S1234");
    }

    #[test]
    fn two_reach_single_rule() {
        let (_, pmtds) = pf::pmtds_2reach().unwrap();
        let rules = minimal_rules(&pmtds);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].label(), "T123 ∨ S13");
    }

    #[test]
    fn four_reach_rules_cover_example_e8() {
        let (_, pmtds) = pf::pmtds_4reach().unwrap();
        let minimal = minimal_rules(&pmtds);
        // Every minimal rule must either contain one of the "wide" online
        // targets (T1245, T125, T145 — the ρ1 case of Example E.8) or be one
        // of the ρ2–ρ5 shapes over the narrower targets.
        assert!(!minimal.is_empty());
        for rule in &minimal {
            let label = rule.label();
            assert!(label.contains("S15"), "every rule includes S15: {label}");
        }
        // The pruning keeps the rule count manageable for the LP sweep.
        assert!(minimal.len() <= 40, "got {} rules", minimal.len());
    }

    #[test]
    fn prune_is_idempotent() {
        let (_, pmtds) = pf::pmtds_3reach_all().unwrap();
        let once = prune_rules(generate_rules(&pmtds));
        let twice = prune_rules(once.clone());
        assert_eq!(once.len(), twice.len());
    }
}
