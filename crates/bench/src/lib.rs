//! # qvsec-bench — benchmark harnesses
//!
//! Each module is a JSON-emitting harness whose report is committed at the
//! repository root, so the performance trajectory lives in the repository:
//!
//! * [`crit`] — `BENCH_crit.json` (`cargo run --release -p qvsec-bench --bin
//!   bench_crit`): the `crit(Q)` kernel vs. the sequential path, with
//!   pruning counters.
//! * [`prob`] — `BENCH_prob.json` (`--bin bench_prob`): the shared-sample
//!   probabilistic kernel vs. the enumeration baseline, plus a Monte-Carlo
//!   pool-reuse section.
//! * [`session`] — `BENCH_session.json` (`--bin bench_session`): warm
//!   `AuditSession` steps vs. a fresh engine per step.
//! * [`serve`] — `BENCH_serve.json` (`--bin bench_serve`): the multi-tenant
//!   registry and the NDJSON server.
//!
//! Every binary accepts `--threads N` to pin the worker count; this crate's
//! `README.md` records the per-thread scaling notes. The paper's tables
//! and worked examples are asserted by the workspace tests and printed by
//! the `quickstart` example.

pub mod crit;
pub mod prob;
pub mod serve;
pub mod session;

/// Builds the support-set dictionary the probabilistic harness audits over:
/// the queries' support over the row's domain padded to two constants, with
/// uniform probability 1/2.
pub fn support_dictionary(
    queries: &[&qvsec_cq::ConjunctiveQuery],
    domain: &qvsec_data::Domain,
) -> qvsec_data::Dictionary {
    let mut padded = domain.clone();
    padded.pad_to(2);
    let space =
        qvsec_prob::lineage::support_space(queries, &padded, 1 << 12).expect("small support");
    qvsec_data::Dictionary::uniform(space, qvsec_data::Ratio::new(1, 2)).expect("valid dictionary")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec_workload::paper::table1;

    #[test]
    fn support_dictionary_is_enumerable_for_every_table1_row() {
        for row in table1() {
            let mut queries: Vec<&qvsec_cq::ConjunctiveQuery> = vec![&row.secret];
            queries.extend(row.views.iter());
            let dict = support_dictionary(&queries, &row.domain);
            assert!(dict.len() <= qvsec_data::bitset::MAX_ENUMERABLE);
        }
    }
}
