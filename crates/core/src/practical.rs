//! Practical security under the expected-constant-size model (Section 6.2).
//!
//! The follow-up model (Dalvi–Miklau–Suciu) replaces the fixed dictionary by
//! a family of dictionaries indexed by the domain size `n`: every tuple of a
//! relation of arity `k` has probability `S / n^k`, so the expected relation
//! size stays `S` while the domain grows. Writing `μ_n[Q]` for the
//! probability that a boolean query `Q` is true, the key fact is that
//! `μ_n[Q] = c / n^d + O(1/n^{d+1})` for computable constants `c, d`, and
//! *practical security* of `Q` w.r.t. `V` is defined as
//! `lim_n μ_n[Q | V] = 0`.
//!
//! This module computes the exponent `d` **exactly** for boolean conjunctive
//! queries without comparisons, by enumerating the quotient images of the
//! query (all ways of merging variables with each other or with the query's
//! constants) and minimising
//!
//! ```text
//! d(image) = Σ_{t ∈ image} arity(t)  −  #generic classes
//! ```
//!
//! The coefficient `c` is *estimated* as `Σ S^{|image|}` over the minimising
//! images (the exact constant requires the inclusion–exclusion analysis of
//! the ICDT'05 paper; the estimate preserves the classification
//! perfect / practically secure / practical disclosure, which only depends on
//! exponent comparisons and coefficient ratios of the minimising images).
//! Monte-Carlo evaluation at growing `n` ([`estimate_mu_n`]) validates the
//! exponents empirically.

use crate::{QvsError, Result};
use qvsec_cq::{ConjunctiveQuery, Term};
use qvsec_data::{Dictionary, Domain, Schema, TupleSpace, Value};
use qvsec_prob::kernel::{world_column, CompiledQuery, SamplePool};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The asymptotic behaviour of `μ_n[Q]`: `μ_n[Q] ≈ coefficient / n^exponent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Asymptotics {
    /// The exponent `d` (exact).
    pub exponent: u32,
    /// The estimated coefficient `c` (in units of `S^k`; see module docs).
    pub coefficient: f64,
    /// Number of quotient images achieving the minimal exponent.
    pub minimizing_images: usize,
}

/// The practical-security classification of Section 6.2.
#[derive(Debug, Clone, PartialEq)]
pub enum PracticalVerdict {
    /// `lim μ_n[Q | V] = 0`: the disclosure is negligible for large domains.
    PracticallySecure,
    /// `0 < lim μ_n[Q | V] < 1` (estimated limit attached): a non-negligible
    /// disclosure.
    PracticalDisclosure {
        /// Estimated value of the limit `lim μ_n[Q | V]` (coefficient ratio).
        estimated_limit: f64,
    },
}

fn check_supported(query: &ConjunctiveQuery) -> Result<()> {
    if !query.is_boolean() {
        return Err(QvsError::NotBoolean(query.name.clone()));
    }
    if query.has_comparisons() {
        return Err(QvsError::UnsupportedComparisons(query.name.clone()));
    }
    Ok(())
}

/// Enumerates all functions from `0..n` onto "targets": either one of the
/// `constants` or a generic class index. Classes are canonicalised by first
/// occurrence so that each partition is produced once.
fn enumerate_quotients(num_vars: usize, num_constants: usize) -> Vec<Vec<usize>> {
    // target encoding: 0..num_constants are the constants; values >=
    // num_constants are generic classes (canonical: class k may only be used
    // after classes num_constants..num_constants+k-1 appeared).
    let mut out = Vec::new();
    let mut current = vec![0usize; num_vars];
    fn rec(
        idx: usize,
        num_vars: usize,
        num_constants: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if idx == num_vars {
            out.push(current.clone());
            return;
        }
        let max_class_used = current[..idx]
            .iter()
            .filter(|&&t| t >= num_constants)
            .max()
            .copied();
        let next_fresh = match max_class_used {
            Some(m) => m + 1,
            None => num_constants,
        };
        for target in 0..=next_fresh {
            if target < num_constants || target <= next_fresh {
                current[idx] = target;
                rec(idx + 1, num_vars, num_constants, current, out);
            }
        }
    }
    if num_vars == 0 {
        out.push(Vec::new());
    } else {
        rec(0, num_vars, num_constants, &mut current, &mut out);
    }
    out
}

/// Computes the exact asymptotic exponent `d` and the estimated coefficient
/// of `μ_n[Q]` under the expected-size model with per-relation expected size
/// `expected_size`.
pub fn asymptotics(
    query: &ConjunctiveQuery,
    schema: &Schema,
    expected_size: f64,
) -> Result<Asymptotics> {
    check_supported(query)?;
    let vars: Vec<_> = query.variables().collect();
    let constants: Vec<Value> = query.constants().into_iter().collect();
    let quotients = enumerate_quotients(vars.len(), constants.len());
    let mut best_exponent = u32::MAX;
    let mut best: Vec<(usize, u32)> = Vec::new(); // (num image tuples, exponent)
    for quotient in &quotients {
        // Build the image instance under this quotient. Generic classes get
        // synthetic values beyond the constant range.
        let value_of = |term: &Term| -> u64 {
            match term {
                Term::Const(c) => {
                    // identify the constant with its index among `constants`
                    constants.iter().position(|&x| x == *c).unwrap() as u64
                }
                Term::Var(v) => {
                    let vi = vars.iter().position(|x| x == v).unwrap();
                    quotient[vi] as u64
                }
            }
        };
        let mut image: BTreeSet<(u32, Vec<u64>)> = BTreeSet::new();
        for atom in &query.atoms {
            image.insert((atom.relation.0, atom.terms.iter().map(&value_of).collect()));
        }
        let total_arity: u32 = image
            .iter()
            .map(|(rel, _)| schema.arity(qvsec_data::RelationId(*rel)) as u32)
            .sum();
        let generic_classes: BTreeSet<usize> = quotient
            .iter()
            .copied()
            .filter(|&t| t >= constants.len())
            .collect();
        let exponent = total_arity.saturating_sub(generic_classes.len() as u32);
        if exponent < best_exponent {
            best_exponent = exponent;
            best.clear();
        }
        if exponent == best_exponent {
            best.push((image.len(), exponent));
        }
    }
    let coefficient: f64 = best
        .iter()
        .map(|(num_tuples, _)| expected_size.powi(*num_tuples as i32))
        .sum();
    Ok(Asymptotics {
        exponent: best_exponent,
        coefficient,
        minimizing_images: best.len(),
    })
}

/// Conjoins two boolean queries into a single boolean query with renamed-apart
/// variables (used for `μ_n[Q ∧ V]`).
pub fn conjoin(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut out = ConjunctiveQuery::new(&format!("{}_and_{}", q1.name, q2.name));
    let map_query = |src: &ConjunctiveQuery, out: &mut ConjunctiveQuery, prefix: &str| {
        let mapping: Vec<_> = src
            .variables()
            .map(|v| out.add_var(&format!("{prefix}{}", src.var_name(v))))
            .collect();
        for atom in &src.atoms {
            let terms = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Term::Var(mapping[v.index()]),
                    Term::Const(c) => Term::Const(*c),
                })
                .collect();
            out.atoms.push(qvsec_cq::Atom::new(atom.relation, terms));
        }
    };
    map_query(q1, &mut out, "l_");
    map_query(q2, &mut out, "r_");
    out
}

/// Classifies the disclosure of `V` about `Q` in the limit of large domains:
/// practically secure iff `d(Q ∧ V) > d(V)`.
pub fn practical_security(
    secret: &ConjunctiveQuery,
    view: &ConjunctiveQuery,
    schema: &Schema,
    expected_size: f64,
) -> Result<PracticalVerdict> {
    check_supported(secret)?;
    check_supported(view)?;
    let joint = conjoin(secret, view);
    let a_joint = asymptotics(&joint, schema, expected_size)?;
    let a_view = asymptotics(view, schema, expected_size)?;
    if a_joint.exponent > a_view.exponent {
        Ok(PracticalVerdict::PracticallySecure)
    } else {
        Ok(PracticalVerdict::PracticalDisclosure {
            estimated_limit: (a_joint.coefficient / a_view.coefficient).min(1.0),
        })
    }
}

/// Empirically estimates `μ_n[Q]` at a specific domain size `n` under the
/// expected-size model: the share of `samples` worlds of the kernel's
/// seeded [`SamplePool`] on which the boolean query holds (exact
/// enumeration where the tuple space is small enough is performed by the
/// caller through `qvsec_prob::probability`).
pub fn estimate_mu_n(
    query: &ConjunctiveQuery,
    schema: &Schema,
    n: usize,
    expected_size: u32,
    samples: usize,
    seed: u64,
) -> Result<f64> {
    let (_, dict) = expected_size_dictionary(schema, n, expected_size)?;
    let pool = SamplePool::generate(&dict, Arc::new(dict.space().clone()), samples, seed);
    let compiled = CompiledQuery::compile(query, pool.space());
    let hits = world_column(&pool, &compiled)
        .chunks(compiled.sig_words().max(1))
        .filter(|answers| answers.iter().any(|&word| word != 0))
        .count();
    Ok(hits as f64 / samples.max(1) as f64)
}

/// The expected-size dictionary over a domain of size `n`.
pub fn expected_size_dictionary(
    schema: &Schema,
    n: usize,
    expected_size: u32,
) -> Result<(Domain, Dictionary)> {
    let domain = Domain::with_size(n);
    let space = TupleSpace::full_with_cap(schema, &domain, 1 << 20)?;
    let dict = Dictionary::expected_size(schema, &domain, space, expected_size)?;
    Ok((domain, dict))
}

/// The tuple-probability used by the expected-size model for a relation of
/// the given arity, exposed for documentation and experiment scripts.
pub fn model_tuple_probability(n: usize, arity: usize, expected_size: f64) -> f64 {
    (expected_size / (n as f64).powi(arity as i32)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec_cq::parse_query;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation("R", &["x", "y"]);
        s
    }

    #[test]
    fn exponent_of_edge_existence_is_zero() {
        // Q() :- R(x, y): the expected number of edges is constant, so
        // μ_n[Q] → 1 − e^{-S}: exponent 0.
        let schema = schema();
        let mut domain = Domain::new();
        let q = parse_query("Q() :- R(x, y)", &schema, &mut domain).unwrap();
        let a = asymptotics(&q, &schema, 2.0).unwrap();
        assert_eq!(a.exponent, 0);
    }

    #[test]
    fn exponent_of_self_loop_is_one() {
        // Q() :- R(x, x): ~n candidate loops each with probability S/n²,
        // so μ_n ≈ S/n: exponent 1.
        let schema = schema();
        let mut domain = Domain::new();
        let q = parse_query("Q() :- R(x, x)", &schema, &mut domain).unwrap();
        let a = asymptotics(&q, &schema, 2.0).unwrap();
        assert_eq!(a.exponent, 1);
    }

    #[test]
    fn exponent_of_specific_tuple_is_the_arity() {
        // Q() :- R('a', 'b'): probability S/n²: exponent 2.
        let schema = schema();
        let mut domain = Domain::new();
        let q = parse_query("Q() :- R('a', 'b')", &schema, &mut domain).unwrap();
        let a = asymptotics(&q, &schema, 2.0).unwrap();
        assert_eq!(a.exponent, 2);
    }

    #[test]
    fn exponent_of_a_path_of_length_two() {
        // Q() :- R(x, y), R(y, z): expected number of 2-paths is S²·n³/n⁴ =
        // S²/n: exponent 1 (the collapsed single-edge image x=y=z has
        // exponent 2−1 = 1 as well; either way d = 1).
        let schema = schema();
        let mut domain = Domain::new();
        let q = parse_query("Q() :- R(x, y), R(y, z)", &schema, &mut domain).unwrap();
        let a = asymptotics(&q, &schema, 2.0).unwrap();
        assert_eq!(a.exponent, 1);
    }

    #[test]
    fn practical_security_classification() {
        let schema = schema();
        let mut domain = Domain::new();
        // V reveals whether any edge leaves 'a'; Q asks about a specific tuple
        // not sharing structure: practically secure (d(QV) > d(V)).
        let v = parse_query("V() :- R(x, y)", &schema, &mut domain).unwrap();
        let q = parse_query("Q() :- R('a', 'b')", &schema, &mut domain).unwrap();
        assert_eq!(
            practical_security(&q, &v, &schema, 2.0).unwrap(),
            PracticalVerdict::PracticallySecure
        );
        // Nor does an out-edge of 'a' (d(QV) = 2 > d(V) = 1).
        let out_a = parse_query("V() :- R('a', x)", &schema, &mut domain).unwrap();
        assert_eq!(
            practical_security(&q, &out_a, &schema, 4.0).unwrap(),
            PracticalVerdict::PracticallySecure
        );

        // V = Q: the limit of μ_n[Q | V] is 1 — a practical disclosure.
        match practical_security(&q, &q, &schema, 2.0).unwrap() {
            PracticalVerdict::PracticalDisclosure { estimated_limit } => {
                assert!(estimated_limit > 0.0 && estimated_limit <= 1.0);
            }
            other => panic!("expected practical disclosure, got {other:?}"),
        }
    }

    #[test]
    fn monte_carlo_estimates_decay_with_the_predicted_exponent() {
        // Q() :- R(x, x) has exponent 1: doubling n should roughly halve the
        // probability (up to sampling noise).
        let schema = schema();
        let mut domain = Domain::new();
        let q = parse_query("Q() :- R(x, x)", &schema, &mut domain).unwrap();
        let p8 = estimate_mu_n(&q, &schema, 8, 4, 6000, 3).unwrap();
        let p16 = estimate_mu_n(&q, &schema, 16, 4, 6000, 3).unwrap();
        assert!(p8 > p16, "μ_n must decrease with n: {p8} vs {p16}");
        let ratio = p8 / p16.max(1e-6);
        assert!(
            ratio > 1.3 && ratio < 3.5,
            "decay ratio {ratio} inconsistent with d = 1"
        );
    }

    #[test]
    fn unsupported_queries_are_rejected() {
        let schema = schema();
        let mut domain = Domain::new();
        let non_boolean = parse_query("Q(x) :- R(x, y)", &schema, &mut domain).unwrap();
        assert!(matches!(
            asymptotics(&non_boolean, &schema, 2.0),
            Err(QvsError::NotBoolean(_))
        ));
        let with_cmp = parse_query("Q() :- R(x, y), x < y", &schema, &mut domain).unwrap();
        assert!(matches!(
            asymptotics(&with_cmp, &schema, 2.0),
            Err(QvsError::UnsupportedComparisons(_))
        ));
    }

    #[test]
    fn conjoin_renames_variables_apart() {
        let schema = schema();
        let mut domain = Domain::new();
        let q1 = parse_query("Q1() :- R(x, y)", &schema, &mut domain).unwrap();
        let q2 = parse_query("Q2() :- R(x, x)", &schema, &mut domain).unwrap();
        let joint = conjoin(&q1, &q2);
        assert_eq!(joint.atoms.len(), 2);
        assert_eq!(joint.num_vars(), 3, "x/y from Q1 plus x from Q2");
        let vars = |atom: &qvsec_cq::Atom| -> BTreeSet<_> {
            atom.terms
                .iter()
                .filter_map(|t| match t {
                    Term::Var(v) => Some(*v),
                    Term::Const(_) => None,
                })
                .collect()
        };
        assert!(vars(&joint.atoms[0]).is_disjoint(&vars(&joint.atoms[1])));
    }

    #[test]
    fn model_probability_and_table_helpers() {
        assert!((model_tuple_probability(10, 2, 3.0) - 0.03).abs() < 1e-12);
        assert_eq!(model_tuple_probability(1, 2, 5.0), 1.0, "clamped at 1");
        let schema = schema();
        let mut domain = Domain::new();
        // The Section 6.2 exponent table at expected size S = 4.
        for (text, exponent) in [
            ("Edge() :- R(x, y)", 0),
            ("Loop() :- R(x, x)", 1),
            ("Path2() :- R(x, y), R(y, z)", 1),
            ("Triangle() :- R(x, y), R(y, z), R(z, x)", 1),
            ("Constant() :- R('a', 'b')", 2),
            ("OutEdgeOfA() :- R('a', x)", 1),
        ] {
            let q = parse_query(text, &schema, &mut domain).unwrap();
            assert_eq!(
                asymptotics(&q, &schema, 4.0).unwrap().exponent,
                exponent,
                "{text}"
            );
        }
        let (_, dict) = expected_size_dictionary(&schema, 4, 2).unwrap();
        assert_eq!(dict.len(), 16);
    }
}
