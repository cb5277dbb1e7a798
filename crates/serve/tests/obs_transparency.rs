//! Observability-transparency proptests: the telemetry plane must be a
//! pure side channel. With span tracing and the metrics registry fully
//! enabled, every response byte must be identical to a run with tracing
//! off; the opt-in `timing` member must be exactly additive (stripping it
//! recovers the untimed bytes); and the unified metrics snapshot must stay
//! monotone and sum-consistent with the legacy counter bags it unifies.
//!
//! Tracing is a process-global flag, so tests that flip it serialize on
//! one mutex and restore the flag before releasing it.

#![recursion_limit = "256"]

use proptest::prelude::*;
use qvsec::engine::AuditEngine;
use qvsec_data::{Domain, Schema};
use qvsec_serve::{collect_metrics, handle_request, SessionRegistry};
use serde_json::Value;
use std::sync::{Arc, Mutex};

/// Serializes tests that toggle the process-global tracing flag.
static TRACING_FLAG: Mutex<()> = Mutex::new(());

const VIEWS: &[&str] = &[
    "V(n) :- Employee(n, 'Mgmt', p)",
    "V(n, d) :- Employee(n, d, p)",
    "V(d) :- Employee(n, d, p)",
    "V(n, p) :- Employee(n, d, p)",
];

const SECRET: &str = "S(n) :- Employee(n, 'HR', p)";

fn fresh_registry() -> SessionRegistry {
    let mut schema = Schema::new();
    schema.add_relation("Employee", &["name", "department", "phone"]);
    let domain = Domain::with_constants(["Mgmt", "HR"]);
    let engine = Arc::new(AuditEngine::builder(schema, domain).build());
    SessionRegistry::new(engine)
}

/// One script step; indexes into [`VIEWS`].
#[derive(Debug, Clone)]
enum Step {
    Publish(usize),
    Candidate(usize),
    Snapshot,
    Restore,
    Explain(usize),
    Stats,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0..VIEWS.len()).prop_map(Step::Publish),
        3 => (0..VIEWS.len()).prop_map(Step::Candidate),
        1 => Just(Step::Snapshot),
        1 => Just(Step::Restore),
        2 => (0..VIEWS.len()).prop_map(Step::Explain),
        1 => Just(Step::Stats),
    ]
}

/// Renders steps as one tenant's deterministic NDJSON script.
fn wire_script(tenant: &str, steps: &[Step]) -> Vec<String> {
    let mut lines = vec![format!(
        r#"{{"op": "open", "tenant": "{tenant}", "secret": "{SECRET}"}}"#
    )];
    let mut snapshots: Vec<String> = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let line = match step {
            Step::Publish(v) => format!(
                r#"{{"op": "publish", "tenant": "{tenant}", "view": "{}", "name": "v{i}"}}"#,
                VIEWS[*v]
            ),
            Step::Candidate(v) => format!(
                r#"{{"op": "candidate", "tenant": "{tenant}", "view": "{}"}}"#,
                VIEWS[*v]
            ),
            Step::Snapshot => {
                let label = format!("s{i}");
                let line =
                    format!(r#"{{"op": "snapshot", "tenant": "{tenant}", "label": "{label}"}}"#);
                snapshots.push(label);
                line
            }
            Step::Restore => match snapshots.last() {
                Some(label) => {
                    format!(r#"{{"op": "restore", "tenant": "{tenant}", "label": "{label}"}}"#)
                }
                None => format!(
                    r#"{{"op": "candidate", "tenant": "{tenant}", "view": "{}"}}"#,
                    VIEWS[0]
                ),
            },
            Step::Explain(v) => {
                format!(r#"{{"op": "explain", "view": "{}"}}"#, VIEWS[*v])
            }
            Step::Stats => r#"{"op": "stats"}"#.to_string(),
        };
        lines.push(line);
    }
    lines
}

/// Drives a fresh registry through `script` via the embedded dispatcher
/// and returns the exact response bytes.
fn drive(script: &[String]) -> Vec<String> {
    let registry = fresh_registry();
    script
        .iter()
        .map(|line| serde_json::to_string(&handle_request(&registry, line).0).unwrap())
        .collect()
}

/// Removes the opt-in `timing` member from a response object.
fn strip_timing(value: &Value) -> Value {
    match value {
        Value::Object(members) => Value::Object(
            members
                .iter()
                .filter(|(name, _)| name != "timing")
                .map(|(name, member)| (name.clone(), strip_timing(member)))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn check_tracing_is_byte_transparent(steps: &[Step]) {
    let script = wire_script("t0", steps);
    let _flag = TRACING_FLAG.lock().unwrap();
    qvsec_obs::set_tracing(false);
    let untraced = drive(&script);
    qvsec_obs::set_tracing(true);
    let traced = drive(&script);
    qvsec_obs::set_tracing(false);
    prop_assert_eq!(&untraced, &traced, "span tracing changed a response byte");
}

fn check_timing_member_is_exactly_additive(steps: &[Step]) {
    let script = wire_script("t0", steps);
    let timed_script: Vec<String> = script
        .iter()
        .map(|line| {
            let mut value = serde_json::parse(line).unwrap();
            if let Value::Object(entries) = &mut value {
                entries.push(("timing".to_string(), Value::Bool(true)));
            }
            serde_json::to_string(&value).unwrap()
        })
        .collect();
    let _flag = TRACING_FLAG.lock().unwrap();
    qvsec_obs::set_tracing(true);
    let plain = drive(&script);
    let timed = drive(&timed_script);
    qvsec_obs::set_tracing(false);
    for (plain_line, timed_line) in plain.iter().zip(&timed) {
        let timed_value = serde_json::parse(timed_line).unwrap();
        prop_assert!(
            !timed_value.field("timing").field("total_nanos").is_null(),
            "opted-in response is missing its timing member: {}",
            timed_line
        );
        prop_assert_eq!(
            &serde_json::to_string(&strip_timing(&timed_value)).unwrap(),
            plain_line,
            "timing member is not purely additive"
        );
    }
}

fn check_metrics_monotone_and_sum_consistent(steps: &[Step]) {
    let registry = fresh_registry();
    let before = collect_metrics(&registry, None);
    for line in wire_script("t0", steps) {
        handle_request(&registry, &line);
    }
    let after = collect_metrics(&registry, None);
    // Global counters never decrease (other tests may bump them
    // concurrently, so only monotonicity is asserted).
    for (name, value) in &before.counters {
        let later = after.counters.get(name).copied().unwrap_or(0);
        prop_assert!(
            later >= *value,
            "counter {} went backwards: {} -> {}",
            name,
            value,
            later
        );
    }
    // Histogram observation counts are monotone too.
    for (name, snap) in &before.histograms {
        if let Some(later) = after.histograms.get(name) {
            prop_assert!(
                later.count >= snap.count,
                "histogram {} lost observations",
                name
            );
        }
    }
    // The merged counters and gauges equal the legacy bags they unify,
    // read at the same quiesced moment.
    let stats = registry.stats();
    let snap = collect_metrics(&registry, None);
    prop_assert_eq!(
        snap.counters["registry.requests_served"],
        stats.requests_served
    );
    prop_assert_eq!(snap.gauges["registry.tenants"], stats.tenants.len() as u64);
    prop_assert_eq!(
        snap.counters["cache.crit.hits"],
        stats.engine_cache.crit_cache_hits
    );
    prop_assert_eq!(
        snap.counters["cache.crit.misses"],
        stats.engine_cache.crit_cache_misses
    );
    prop_assert_eq!(
        snap.counters["kernel.mc.samples_drawn"],
        stats.engine_cache.mc_samples_drawn
    );
    prop_assert_eq!(snap.gauges["store.journal.records"], stats.journal_records);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tracing_is_byte_transparent(
        steps in proptest::collection::vec(step_strategy(), 3..10),
    ) {
        check_tracing_is_byte_transparent(&steps);
    }

    #[test]
    fn timing_member_is_exactly_additive(
        steps in proptest::collection::vec(step_strategy(), 3..8),
    ) {
        check_timing_member_is_exactly_additive(&steps);
    }

    #[test]
    fn metrics_stay_monotone_and_sum_consistent(
        steps in proptest::collection::vec(step_strategy(), 3..10),
    ) {
        check_metrics_monotone_and_sum_consistent(&steps);
    }
}

/// `explain` between every step of a script must not change any later
/// response byte: the probe never promotes a store entry, never refreshes
/// LRU recency, never bumps a counter that feeds a report.
#[test]
fn interleaved_explains_do_not_perturb_responses() {
    let steps: Vec<Step> = vec![
        Step::Publish(0),
        Step::Candidate(1),
        Step::Snapshot,
        Step::Publish(2),
        Step::Restore,
        Step::Candidate(3),
        Step::Stats,
    ];
    let script = wire_script("t0", &steps);
    let baseline = drive(&script);

    let registry = fresh_registry();
    let mut probed = Vec::new();
    for line in &script {
        for view in VIEWS {
            let explain = format!(r#"{{"op": "explain", "view": "{view}"}}"#);
            let (response, _) = handle_request(&registry, &explain);
            assert_eq!(response.field("ok"), &Value::Bool(true), "{response:?}");
        }
        probed.push(serde_json::to_string(&handle_request(&registry, line).0).unwrap());
    }
    assert_eq!(baseline, probed, "explain probes perturbed a response");
}
