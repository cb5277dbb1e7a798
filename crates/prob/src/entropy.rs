//! The entropy-based alternative model of security (Section 2.3).
//!
//! The paper notes that query-view security *could* be phrased in terms of
//! Shannon entropy: comparing `H(S)` with the conditional entropy `H(S | V̄)`
//! aggregates over answers and yields a **strictly weaker** criterion than
//! Definition 4.1 — mutual information `I(S; V̄) = 0` is equivalent to
//! statistical independence, but small positive mutual information can hide
//! large per-answer probability shifts. This module implements the
//! entropy view so that the comparison the paper sketches can actually be
//! run (see the unit tests):
//!
//! * `H(S)`, `H(V̄)`, `H(S, V̄)`, `H(S | V̄)` over a dictionary, in bits,
//! * mutual information `I(S; V̄) = H(S) − H(S | V̄)`, and
//! * the per-answer entropy comparison that *is* equivalent to
//!   Definition 4.1.

use crate::probability::{joint_distribution, JointDistribution};
use qvsec_cq::{ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Ratio, Result};

/// Entropies (in bits) of the secret, the views, and their interaction under
/// a dictionary.
#[derive(Debug, Clone, PartialEq)]
pub struct EntropyReport {
    /// `H(S)`: entropy of the secret query's answer.
    pub query_entropy: f64,
    /// `H(V̄)`: entropy of the views' answers.
    pub views_entropy: f64,
    /// `H(S, V̄)`: joint entropy.
    pub joint_entropy: f64,
    /// `H(S | V̄) = H(S, V̄) − H(V̄)`.
    pub conditional_entropy: f64,
    /// `I(S; V̄) = H(S) − H(S | V̄)` (non-negative up to rounding).
    pub mutual_information: f64,
}

fn h(probabilities: impl Iterator<Item = Ratio>) -> f64 {
    probabilities
        .map(|p| p.to_f64())
        .filter(|&p| p > 0.0)
        .map(|p| -p * p.log2())
        .sum()
}

fn report_from_joint(joint: &JointDistribution) -> EntropyReport {
    let mass = joint.total_mass;
    let normalise = |p: Ratio| p / mass;
    let query_entropy = h(joint.marginal_query().values().map(|&p| normalise(p)));
    let views_entropy = h(joint.marginal_views().values().map(|&p| normalise(p)));
    let joint_entropy = h(joint.iter().map(|(_, p)| normalise(p)));
    let conditional_entropy = joint_entropy - views_entropy;
    EntropyReport {
        query_entropy,
        views_entropy,
        joint_entropy,
        conditional_entropy,
        mutual_information: query_entropy - conditional_entropy,
    }
}

/// Computes the entropy report of `(S, V̄)` under a dictionary.
pub fn entropy_report(
    secret: &ConjunctiveQuery,
    views: &ViewSet,
    dict: &Dictionary,
) -> Result<EntropyReport> {
    let joint = joint_distribution(secret, views, dict, |_| true)?;
    Ok(report_from_joint(&joint))
}

/// Computes the entropy report conditioned on prior knowledge (instances not
/// satisfying the predicate are discarded and the distribution renormalised).
pub fn entropy_report_given<F>(
    secret: &ConjunctiveQuery,
    views: &ViewSet,
    dict: &Dictionary,
    prior: F,
) -> Result<EntropyReport>
where
    F: FnMut(&qvsec_data::Instance) -> bool,
{
    let joint = joint_distribution(secret, views, dict, prior)?;
    Ok(report_from_joint(&joint))
}

impl EntropyReport {
    /// Whether the aggregate (entropy) criterion considers the pair secure:
    /// `I(S; V̄) ≈ 0` up to the given tolerance in bits.
    ///
    /// Zero mutual information is *equivalent* to Definition 4.1 security,
    /// but thresholding a small positive value (as an aggregate criterion in
    /// practice would) is strictly weaker: it can accept pairs with large
    /// per-answer disclosures of low-probability secrets — exactly the
    /// weakness Section 2.3 warns about.
    pub fn aggregate_secure(&self, tolerance_bits: f64) -> bool {
        self.mutual_information.abs() <= tolerance_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independence::check_independence;
    use qvsec_cq::parse_query;
    use qvsec_data::{Domain, Schema, TupleSpace};

    fn setup() -> (Schema, Domain, Dictionary) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let domain = Domain::with_constants(["a", "b"]);
        let dict = Dictionary::half(TupleSpace::full(&schema, &domain).unwrap());
        (schema, domain, dict)
    }

    #[test]
    fn independent_pairs_have_zero_mutual_information() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(y, 'a')", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, 'b')", &schema, &mut domain).unwrap();
        let report = entropy_report(&s, &ViewSet::single(v), &dict).unwrap();
        assert!(
            report.mutual_information.abs() < 1e-9,
            "I = {}",
            report.mutual_information
        );
        assert!(report.aggregate_secure(1e-9));
        // S ranges over 4 equally likely answer sets (subsets of {a, b}
        // restricted by the two tuples R(a,a), R(b,a)): H(S) = 2 bits.
        assert!((report.query_entropy - 2.0).abs() < 1e-9);
        // H(S | V) = H(S) when independent
        assert!((report.conditional_entropy - report.query_entropy).abs() < 1e-9);
    }

    #[test]
    fn dependent_pairs_have_positive_mutual_information() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let report = entropy_report(&s, &ViewSet::single(v.clone()), &dict).unwrap();
        assert!(
            report.mutual_information > 0.05,
            "I = {}",
            report.mutual_information
        );
        assert!(!report.aggregate_secure(1e-3));
        // sanity: the exact independence check agrees that the pair is dependent
        assert!(
            !check_independence(&s, &ViewSet::single(v), &dict)
                .unwrap()
                .independent
        );
        // information-theoretic identities hold
        assert!(report.joint_entropy <= report.query_entropy + report.views_entropy + 1e-9);
        assert!(report.conditional_entropy <= report.query_entropy + 1e-9);
    }

    #[test]
    fn aggregate_criterion_is_weaker_than_per_answer_security() {
        // Section 2.3's warning, made concrete: a rare but total disclosure.
        // The view V() :- R('a','a'), R('a','b'), R('b','a'), R('b','b') is
        // true only when all four tuples are present (probability 1/16), and
        // then it pins down the secret completely. Mutual information is
        // small (≈ 0.34 bits, far below H(S) = 2 bits), so an aggregate
        // threshold of, say, half a bit accepts the pair — while the exact
        // per-answer criterion correctly rejects it.
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query(
            "V() :- R('a','a'), R('a','b'), R('b','a'), R('b','b')",
            &schema,
            &mut domain,
        )
        .unwrap();
        let report = entropy_report(&s, &ViewSet::single(v.clone()), &dict).unwrap();
        assert!(report.mutual_information > 0.0);
        assert!(
            report.mutual_information < 0.5,
            "the aggregate signal is small: {}",
            report.mutual_information
        );
        assert!(
            report.aggregate_secure(0.5),
            "the aggregate criterion accepts the pair"
        );
        let exact = check_independence(&s, &ViewSet::single(v), &dict).unwrap();
        assert!(
            !exact.independent,
            "but the per-answer criterion rejects it"
        );
        let worst = exact.worst_violation().unwrap();
        assert!(
            worst.posterior.is_one(),
            "observing V pins the secret completely"
        );
    }

    #[test]
    fn conditioning_on_knowledge_reduces_entropy() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let r = schema.relation_by_name("R").unwrap();
        let a = domain.get("a").unwrap();
        let t_aa = qvsec_data::Tuple::new(r, vec![a, a]);
        let unconditional = entropy_report(&s, &ViewSet::single(v.clone()), &dict).unwrap();
        let conditional =
            entropy_report_given(&s, &ViewSet::single(v), &dict, |i| i.contains(&t_aa)).unwrap();
        assert!(conditional.query_entropy < unconditional.query_entropy);
    }

    #[test]
    fn entropy_of_a_deterministic_view_is_zero() {
        let (schema, mut domain, _) = setup();
        let space = TupleSpace::full(&schema, &domain).unwrap();
        // all tuples certainly present: every query answer is deterministic
        let dict = Dictionary::uniform(space, Ratio::ONE).unwrap();
        let s = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let report = entropy_report(&s, &ViewSet::single(v), &dict).unwrap();
        assert!(report.query_entropy.abs() < 1e-12);
        assert!(report.views_entropy.abs() < 1e-12);
        assert!(report.mutual_information.abs() < 1e-12);
    }
}
