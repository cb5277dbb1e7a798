//! # qvsec-prob — exact probability engine
//!
//! This crate turns the probabilistic definitions of the paper into
//! executable, exact procedures:
//!
//! * the probability of an instance and of a query answer under a
//!   tuple-independent dictionary — Eqs. (1) and (2) ([`probability`]),
//! * the joint distribution of `(S(I), V̄(I))` over all instances of a small
//!   tuple space and the literal Definition 4.1 independence test
//!   ([`independence`]),
//! * the event polynomials `f_Q(x̄)` of Section 4.3 as exact sparse
//!   polynomials, together with the properties of Proposition 4.13
//!   ([`poly`]),
//! * lineage (supporting tuple sets and DNF witnesses) used to build reduced
//!   tuple spaces and asymptotic estimates ([`lineage`]), and
//! * the **shared-sample probabilistic kernel** ([`kernel`]): the scalable
//!   path behind the engine's `Probabilistic` stage — exact mask streaming
//!   with an automatic cutover to batched Monte-Carlo over a seeded sample
//!   pool reused across passes and audits.
//!
//! All exact computations use the [`qvsec_data::Ratio`] rational type, so the
//! numbers of the paper's worked examples (`3/16`, `1/3`, `1/4`, ...) are
//! reproduced bit-for-bit rather than approximately.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod entropy;
pub mod independence;
pub mod kernel;
pub mod lineage;
pub mod poly;
pub mod probability;

pub use entropy::{entropy_report, EntropyReport};
pub use independence::{
    check_independence, check_independence_given, IndependenceReport, Violation,
};
pub use kernel::{
    EstimatorMode, EstimatorReport, KernelAudit, KernelConfig, KernelLeakEntry, KernelLeakage,
    ProbKernel, ProbStats, ProbStatsSnapshot, SamplePool, NS_KERNEL_COLUMNS, NS_KERNEL_COMPILE,
};
pub use lineage::{for_each_grounding, lineage_dnf, support_space, support_tuples};
pub use poly::{event_polynomial, from_satisfying, Monomial, Polynomial};
pub use probability::{
    answer_distribution, boolean_probability, conditional_probability, event_probability,
    joint_distribution, JointDistribution,
};
