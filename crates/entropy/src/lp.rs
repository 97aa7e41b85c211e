//! Exact-rational linear programming.
//!
//! A small dense simplex solver sufficient for the Shannon-flow LPs of this
//! workspace (tens of variables, a few hundred constraints). It maximizes a
//! linear objective over non-negative variables subject to `≤`, `≥` and `=`
//! constraints, using the two-phase method with Bland's pivoting rule (which
//! guarantees termination). All arithmetic is exact ([`Rat`]), so optima are
//! exact rationals — the tradeoff exponents the reproduction reports are
//! never subject to floating-point noise.

use cqap_common::Rat;

/// Constraint sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aᵢ xᵢ ≤ b`
    Le,
    /// `Σ aᵢ xᵢ ≥ b`
    Ge,
    /// `Σ aᵢ xᵢ = b`
    Eq,
}

/// A linear constraint in sparse form.
#[derive(Clone, Debug)]
struct Constraint {
    terms: Vec<(usize, Rat)>,
    relation: Relation,
    rhs: Rat,
}

/// Outcome of solving an [`Lp`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal {
        /// The optimal objective value.
        value: Rat,
        /// The values of the decision variables.
        solution: Vec<Rat>,
    },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded above over the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// The optimal value, if the LP was solved to optimality.
    pub fn value(&self) -> Option<Rat> {
        match self {
            LpOutcome::Optimal { value, .. } => Some(*value),
            _ => None,
        }
    }
}

/// A linear program `maximize c·x subject to constraints, x ≥ 0`.
#[derive(Clone, Debug)]
pub struct Lp {
    num_vars: usize,
    objective: Vec<Rat>,
    constraints: Vec<Constraint>,
}

impl Lp {
    /// Creates an LP with `num_vars` non-negative variables and a zero
    /// objective.
    pub fn new(num_vars: usize) -> Self {
        Lp {
            num_vars,
            objective: vec![Rat::ZERO; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the objective coefficient of variable `var` (maximization).
    pub fn set_objective(&mut self, var: usize, coeff: Rat) {
        assert!(var < self.num_vars);
        self.objective[var] = coeff;
    }

    /// Adds a constraint `Σ terms ⋈ rhs`. Repeated variable indices are
    /// summed.
    pub fn add_constraint(&mut self, terms: Vec<(usize, Rat)>, relation: Relation, rhs: Rat) {
        for &(v, _) in &terms {
            assert!(v < self.num_vars, "constraint references unknown variable");
        }
        self.constraints.push(Constraint {
            terms,
            relation,
            rhs,
        });
    }

    /// Solves the LP.
    pub fn solve(&self) -> LpOutcome {
        Tableau::solve(self)
    }
}

/// Dense simplex tableau over rationals.
struct Tableau {
    /// rows × cols matrix; the last column is the RHS.
    rows: Vec<Vec<Rat>>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Total number of columns excluding the RHS.
    num_cols: usize,
}

impl Tableau {
    fn solve(lp: &Lp) -> LpOutcome {
        let n = lp.num_vars;
        let m = lp.constraints.len();

        // Column layout: [structural 0..n) [slack/surplus n..n+m) [artificial ...]
        // (slack columns are allocated for every row; Eq rows simply leave
        //  theirs fixed at zero by never entering them into the basis —
        //  enforced by giving them a zero coefficient).
        let slack_base = n;
        let art_base = n + m;

        // Determine which rows need artificial variables.
        let mut num_art = 0usize;
        let mut art_of_row: Vec<Option<usize>> = vec![None; m];
        let mut normalized: Vec<(Vec<Rat>, Rat, Relation)> = Vec::with_capacity(m);
        for (i, c) in lp.constraints.iter().enumerate() {
            let mut coeffs = vec![Rat::ZERO; n];
            for &(v, a) in &c.terms {
                coeffs[v] += a;
            }
            let mut rhs = c.rhs;
            let mut rel = c.relation;
            // Make the RHS non-negative by multiplying through by -1.
            if rhs.is_negative() {
                for a in &mut coeffs {
                    *a = -*a;
                }
                rhs = -rhs;
                rel = match rel {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
            }
            let needs_art = match rel {
                Relation::Le => false,
                Relation::Ge | Relation::Eq => true,
            };
            if needs_art {
                art_of_row[i] = Some(num_art);
                num_art += 1;
            }
            normalized.push((coeffs, rhs, rel));
        }

        let num_cols = n + m + num_art;
        let mut rows = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        for (i, (coeffs, rhs, rel)) in normalized.iter().enumerate() {
            let mut row = vec![Rat::ZERO; num_cols + 1];
            row[..n].clone_from_slice(coeffs);
            match rel {
                Relation::Le => {
                    row[slack_base + i] = Rat::ONE;
                    basis.push(slack_base + i);
                }
                Relation::Ge => {
                    row[slack_base + i] = -Rat::ONE; // surplus
                    let a = art_base + art_of_row[i].expect("artificial allocated");
                    row[a] = Rat::ONE;
                    basis.push(a);
                }
                Relation::Eq => {
                    let a = art_base + art_of_row[i].expect("artificial allocated");
                    row[a] = Rat::ONE;
                    basis.push(a);
                }
            }
            row[num_cols] = *rhs;
            rows.push(row);
        }

        let mut tab = Tableau {
            rows,
            basis,
            num_cols,
        };

        // Phase 1: minimize the sum of artificial variables, i.e. maximize
        // the negated sum.
        if num_art > 0 {
            let mut phase1_obj = vec![Rat::ZERO; num_cols];
            for a in 0..num_art {
                phase1_obj[art_base + a] = -Rat::ONE;
            }
            let (status, value) = tab.optimize(&phase1_obj);
            debug_assert!(status, "phase 1 cannot be unbounded");
            if value.is_negative() {
                return LpOutcome::Infeasible;
            }
            // Drive any artificial variables remaining in the basis out of
            // it (they must have value zero at this point).
            for r in 0..tab.rows.len() {
                if tab.basis[r] >= art_base {
                    // Find a non-artificial column with a nonzero entry.
                    if let Some(c) = (0..art_base).find(|&c| !tab.rows[r][c].is_zero()) {
                        tab.pivot(r, c);
                    }
                    // If none exists, the row is all zero over the original
                    // columns (a redundant constraint) and can stay as is.
                }
            }
        }

        // Phase 2: maximize the real objective (artificial columns are
        // excluded from entering by giving them strongly negative reduced
        // costs via a zero objective and never selecting them).
        let mut phase2_obj = vec![Rat::ZERO; num_cols];
        phase2_obj[..n].clone_from_slice(&lp.objective);
        let (bounded, value) = tab.optimize_restricted(&phase2_obj, art_base);
        if !bounded {
            return LpOutcome::Unbounded;
        }

        let mut solution = vec![Rat::ZERO; n];
        for (r, &b) in tab.basis.iter().enumerate() {
            if b < n {
                solution[b] = tab.rows[r][num_cols];
            }
        }
        LpOutcome::Optimal { value, solution }
    }

    /// Runs the simplex on the current basis with the given objective.
    /// Returns `(bounded, value)`.
    fn optimize(&mut self, objective: &[Rat]) -> (bool, Rat) {
        self.optimize_restricted(objective, self.num_cols)
    }

    /// Like [`Tableau::optimize`] but never lets a column `≥ forbidden_from`
    /// enter the basis (used in phase 2 to keep artificial variables out).
    ///
    /// Pivoting uses Dantzig's rule (largest reduced cost) for speed and
    /// falls back to Bland's rule — which cannot cycle — once the iteration
    /// count exceeds a safety threshold.
    fn optimize_restricted(&mut self, objective: &[Rat], forbidden_from: usize) -> (bool, Rat) {
        let bland_after = 4 * (self.rows.len() + self.num_cols) + 1000;
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            let reduced = self.reduced_costs(objective);
            let candidates = (0..forbidden_from.min(self.num_cols))
                .filter(|&c| reduced[c].is_positive() && !self.in_basis(c));
            let entering = if iterations > bland_after {
                // Bland's rule: smallest index.
                candidates.min()
            } else {
                // Dantzig's rule: most positive reduced cost.
                candidates.max_by(|&a, &b| reduced[a].cmp(&reduced[b]))
            };
            let Some(entering) = entering else {
                return (true, self.objective_value(objective));
            };
            // Ratio test; Bland's rule tie-break by smallest basis variable.
            let mut leaving: Option<(usize, Rat)> = None;
            for r in 0..self.rows.len() {
                let a = self.rows[r][entering];
                if a.is_positive() {
                    let ratio = self.rows[r][self.num_cols] / a;
                    match &leaving {
                        None => leaving = Some((r, ratio)),
                        Some((lr, lratio)) => {
                            if ratio < *lratio
                                || (ratio == *lratio && self.basis[r] < self.basis[*lr])
                            {
                                leaving = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((leave_row, _)) = leaving else {
                return (false, Rat::ZERO); // unbounded
            };
            self.pivot(leave_row, entering);
        }
    }

    fn in_basis(&self, col: usize) -> bool {
        self.basis.contains(&col)
    }

    /// Reduced cost of each column: `c_j - c_B · B⁻¹ A_j`, computed directly
    /// from the tableau (rows are already `B⁻¹ A`).
    fn reduced_costs(&self, objective: &[Rat]) -> Vec<Rat> {
        let mut reduced = objective.to_vec();
        for (r, &b) in self.basis.iter().enumerate() {
            let cb = objective[b];
            if cb.is_zero() {
                continue;
            }
            for c in 0..self.num_cols {
                let a = self.rows[r][c];
                if !a.is_zero() {
                    reduced[c] -= cb * a;
                }
            }
        }
        reduced
    }

    fn objective_value(&self, objective: &[Rat]) -> Rat {
        let mut v = Rat::ZERO;
        for (r, &b) in self.basis.iter().enumerate() {
            v += objective[b] * self.rows[r][self.num_cols];
        }
        v
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let pivot = self.rows[row][col];
        debug_assert!(!pivot.is_zero());
        let inv = pivot.recip();
        for c in 0..=self.num_cols {
            self.rows[row][c] *= inv;
        }
        for r in 0..self.rows.len() {
            if r == row {
                continue;
            }
            let factor = self.rows[r][col];
            if factor.is_zero() {
                continue;
            }
            for c in 0..=self.num_cols {
                let delta = factor * self.rows[row][c];
                self.rows[r][c] -= delta;
            }
        }
        self.basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::rat::rat;

    #[test]
    fn simple_maximization() {
        // max 3x + 2y s.t. x + y ≤ 4, x ≤ 2  → x = 2, y = 2, value 10.
        let mut lp = Lp::new(2);
        lp.set_objective(0, Rat::int(3));
        lp.set_objective(1, Rat::int(2));
        lp.add_constraint(
            vec![(0, Rat::ONE), (1, Rat::ONE)],
            Relation::Le,
            Rat::int(4),
        );
        lp.add_constraint(vec![(0, Rat::ONE)], Relation::Le, Rat::int(2));
        match lp.solve() {
            LpOutcome::Optimal { value, solution } => {
                assert_eq!(value, Rat::int(10));
                assert_eq!(solution, vec![Rat::int(2), Rat::int(2)]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn fractional_optimum() {
        // max x + y s.t. 2x + y ≤ 3, x + 2y ≤ 3 → x = y = 1, value 2;
        // with objective x + 2y → x = 0? no: optimum at (1,1): 3 vs (0, 3/2): 3.
        // Use max 2x + 3y s.t. same: corners (3/2,0)=3, (1,1)=5, (0,3/2)=9/2 → 5.
        let mut lp = Lp::new(2);
        lp.set_objective(0, Rat::int(2));
        lp.set_objective(1, Rat::int(3));
        lp.add_constraint(
            vec![(0, Rat::int(2)), (1, Rat::ONE)],
            Relation::Le,
            Rat::int(3),
        );
        lp.add_constraint(
            vec![(0, Rat::ONE), (1, Rat::int(2))],
            Relation::Le,
            Rat::int(3),
        );
        assert_eq!(lp.solve().value(), Some(Rat::int(5)));
    }

    #[test]
    fn ge_constraints_and_phase1() {
        // max x s.t. x ≥ 2, x ≤ 5 → 5.
        let mut lp = Lp::new(1);
        lp.set_objective(0, Rat::ONE);
        lp.add_constraint(vec![(0, Rat::ONE)], Relation::Ge, Rat::int(2));
        lp.add_constraint(vec![(0, Rat::ONE)], Relation::Le, Rat::int(5));
        assert_eq!(lp.solve().value(), Some(Rat::int(5)));

        // min-like: max -x s.t. x ≥ 2 → -2.
        let mut lp = Lp::new(1);
        lp.set_objective(0, -Rat::ONE);
        lp.add_constraint(vec![(0, Rat::ONE)], Relation::Ge, Rat::int(2));
        assert_eq!(lp.solve().value(), Some(Rat::int(-2)));
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 3, x ≤ 1 → 3 with x ≤ 1.
        let mut lp = Lp::new(2);
        lp.set_objective(0, Rat::ONE);
        lp.set_objective(1, Rat::ONE);
        lp.add_constraint(
            vec![(0, Rat::ONE), (1, Rat::ONE)],
            Relation::Eq,
            Rat::int(3),
        );
        lp.add_constraint(vec![(0, Rat::ONE)], Relation::Le, Rat::ONE);
        assert_eq!(lp.solve().value(), Some(Rat::int(3)));
    }

    #[test]
    fn infeasible() {
        let mut lp = Lp::new(1);
        lp.set_objective(0, Rat::ONE);
        lp.add_constraint(vec![(0, Rat::ONE)], Relation::Ge, Rat::int(5));
        lp.add_constraint(vec![(0, Rat::ONE)], Relation::Le, Rat::int(1));
        assert_eq!(lp.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded() {
        let mut lp = Lp::new(2);
        lp.set_objective(0, Rat::ONE);
        lp.add_constraint(vec![(1, Rat::ONE)], Relation::Le, Rat::int(1));
        assert_eq!(lp.solve(), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalization() {
        // x - y ≤ -1 means y ≥ x + 1; max x s.t. that and y ≤ 3 → x = 2.
        let mut lp = Lp::new(2);
        lp.set_objective(0, Rat::ONE);
        lp.add_constraint(
            vec![(0, Rat::ONE), (1, -Rat::ONE)],
            Relation::Le,
            Rat::int(-1),
        );
        lp.add_constraint(vec![(1, Rat::ONE)], Relation::Le, Rat::int(3));
        assert_eq!(lp.solve().value(), Some(Rat::int(2)));
    }

    #[test]
    fn repeated_terms_are_summed() {
        // (x + x) ≤ 3 → x ≤ 3/2.
        let mut lp = Lp::new(1);
        lp.set_objective(0, Rat::ONE);
        lp.add_constraint(
            vec![(0, Rat::ONE), (0, Rat::ONE)],
            Relation::Le,
            Rat::int(3),
        );
        assert_eq!(lp.solve().value(), Some(rat(3, 2)));
    }

    #[test]
    fn degenerate_lp_terminates() {
        // A classic degenerate instance; Bland's rule must not cycle.
        let mut lp = Lp::new(4);
        lp.set_objective(0, rat(3, 4));
        lp.set_objective(1, Rat::int(-150));
        lp.set_objective(2, rat(1, 50));
        lp.set_objective(3, Rat::int(-6));
        lp.add_constraint(
            vec![
                (0, rat(1, 4)),
                (1, Rat::int(-60)),
                (2, rat(-1, 25)),
                (3, Rat::int(9)),
            ],
            Relation::Le,
            Rat::ZERO,
        );
        lp.add_constraint(
            vec![
                (0, rat(1, 2)),
                (1, Rat::int(-90)),
                (2, rat(-1, 50)),
                (3, Rat::int(3)),
            ],
            Relation::Le,
            Rat::ZERO,
        );
        lp.add_constraint(vec![(2, Rat::ONE)], Relation::Le, Rat::ONE);
        let out = lp.solve();
        assert_eq!(out.value(), Some(rat(1, 20)));
    }

    #[test]
    fn zero_variable_lp() {
        let lp = Lp::new(3);
        // No constraints, zero objective: optimum 0 at the origin.
        assert_eq!(lp.solve().value(), Some(Rat::ZERO));
    }
}
