//! Integration test: the Appendix A reduction from 3-CNF (in)validity to
//! tuple (non-)criticality, cross-validated against the naive solver on a
//! randomized family of formulas.

use qvsec::cnf::{ForallExists3Cnf, Literal};
use qvsec::hardness::{reduce, tuple_is_critical};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_clause<R: Rng>(num_vars: usize, rng: &mut R) -> Vec<Literal> {
    let width = rng.gen_range(1..=3usize);
    (0..width)
        .map(|_| {
            let idx = rng.gen_range(0..num_vars);
            if rng.gen_bool(0.5) {
                Literal::y(idx)
            } else {
                Literal::not_y(idx)
            }
        })
        .collect()
}

#[test]
fn reduction_agrees_with_the_naive_solver_on_random_formulas() {
    let mut rng = StdRng::seed_from_u64(20260613);
    let mut satisfiable_seen = 0usize;
    let mut unsatisfiable_seen = 0usize;
    for _ in 0..40 {
        let num_vars = rng.gen_range(1..=3usize);
        let num_clauses = rng.gen_range(1..=5usize);
        let clauses: Vec<Vec<Literal>> = (0..num_clauses)
            .map(|_| random_clause(num_vars, &mut rng))
            .collect();
        let formula = ForallExists3Cnf::existential(num_vars, clauses);
        let sat = formula.is_satisfiable();
        if sat {
            satisfiable_seen += 1;
        } else {
            unsatisfiable_seen += 1;
        }
        let critical = tuple_is_critical(&formula).unwrap();
        assert_eq!(
            critical, !sat,
            "reduction disagrees with the solver on {formula}"
        );
    }
    assert!(
        satisfiable_seen > 0,
        "the random family must include satisfiable formulas"
    );
    assert!(
        unsatisfiable_seen > 0,
        "the random family must include unsatisfiable formulas"
    );
}

#[test]
fn reduction_produces_the_documented_gadget_shapes() {
    let formula = ForallExists3Cnf::existential(
        3,
        vec![
            vec![Literal::y(0), Literal::not_y(1), Literal::y(2)],
            vec![Literal::not_y(0), Literal::y(1)],
        ],
    );
    let inst = reduce(&formula).unwrap();
    // the domain is exactly {0, 1, 2, 3}
    assert_eq!(inst.domain.len(), 4);
    // the distinguished tuple repeats its last value: R(0, 1, 2, 3, 3)
    assert_eq!(inst.tuple.values[3], inst.tuple.values[4]);
    // per existential variable: one By relation with 3 subgoals and one Y
    // relation with 3 subgoals
    for i in 0..3 {
        assert!(inst.schema.relation_by_name(&format!("By{i}")).is_some());
        assert!(inst.schema.relation_by_name(&format!("Y{i}")).is_some());
    }
    // clause 1 has 3 distinct variables: 1 z-row + 7 satisfying rows
    let c0 = inst.schema.relation_by_name("C0").unwrap();
    assert_eq!(
        inst.query.atoms.iter().filter(|a| a.relation == c0).count(),
        8
    );
    // clause 2 has 2 distinct variables: 1 z-row + 3 satisfying rows
    let c1 = inst.schema.relation_by_name("C1").unwrap();
    assert_eq!(
        inst.query.atoms.iter().filter(|a| a.relation == c1).count(),
        4
    );
    assert!(inst.query.validate().is_ok());
}

#[test]
fn pigeonhole_style_unsatisfiable_formula_yields_a_critical_tuple() {
    // (Y0 ∨ Y1) ∧ (¬Y0 ∨ Y1) ∧ (Y0 ∨ ¬Y1) ∧ (¬Y0 ∨ ¬Y1) is unsatisfiable.
    let formula = ForallExists3Cnf::existential(
        2,
        vec![
            vec![Literal::y(0), Literal::y(1)],
            vec![Literal::not_y(0), Literal::y(1)],
            vec![Literal::y(0), Literal::not_y(1)],
            vec![Literal::not_y(0), Literal::not_y(1)],
        ],
    );
    assert!(!formula.is_satisfiable());
    assert!(tuple_is_critical(&formula).unwrap());
}

#[test]
fn horn_like_satisfiable_formula_yields_a_non_critical_tuple() {
    // implication chain Y0 → Y1 → Y2 with Y0 forced true: satisfiable.
    let formula = ForallExists3Cnf::existential(
        3,
        vec![
            vec![Literal::y(0)],
            vec![Literal::not_y(0), Literal::y(1)],
            vec![Literal::not_y(1), Literal::y(2)],
        ],
    );
    assert!(formula.is_satisfiable());
    assert!(!tuple_is_critical(&formula).unwrap());

    // Two more satisfiable Appendix A instances: (Y0 ∨ Y1) ∧ (¬Y0 ∨ Y1), and
    // (Y0 ∨ Y1 ∨ Y2) ∧ (¬Y0 ∨ Y1) ∧ (¬Y1 ∨ Y2).
    for formula in [
        ForallExists3Cnf::existential(
            2,
            vec![
                vec![Literal::y(0), Literal::y(1)],
                vec![Literal::not_y(0), Literal::y(1)],
            ],
        ),
        ForallExists3Cnf::existential(
            3,
            vec![
                vec![Literal::y(0), Literal::y(1), Literal::y(2)],
                vec![Literal::not_y(0), Literal::y(1)],
                vec![Literal::not_y(1), Literal::y(2)],
            ],
        ),
    ] {
        assert!(formula.is_satisfiable());
        assert!(!tuple_is_critical(&formula).unwrap());
    }
}
