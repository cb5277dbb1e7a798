//! Multi-party collusion audit of the introduction's data-exchange scenario.
//!
//! ```text
//! cargo run -p qvsec-examples --example collusion_audit
//! ```
//!
//! A manufacturing company publishes three message types (dynamic views) to
//! three partners — suppliers, retailers and a tax consultant — and an HR
//! department publishes the Bob/Carol projections of the Employee table.
//! The audit answers two questions the paper's introduction raises:
//!
//! 1. Does any single recipient learn something about the secret?
//! 2. Which *coalitions* of recipients (accidental or malicious forwarding,
//!    company mergers, ...) would jointly violate the secret?
//!
//! It also quantifies the intro's "four people per department ⇒ a phone
//! number can be guessed with 25% success" claim by Monte-Carlo simulation.

use qvsec_cq::parse_query;
use qvsec_data::{Domain, Instance, Tuple};
use qvsec_workload::paper::{intro_collusion, manufacturing_views};
use qvsec_workload::scenarios::{
    collusion_audit, minimal_unsafe_coalitions, session_publication_audit,
};
use qvsec_workload::schemas::{employee_schema, manufacturing_schema};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn audit_manufacturing() {
    println!("=== Manufacturing exchange audit (intro scenario) ===\n");
    let schema = manufacturing_schema();
    let (secret, views, domain) = manufacturing_views();
    let named: Vec<(String, qvsec_cq::ConjunctiveQuery)> = views
        .iter()
        .cloned()
        .zip(["suppliers", "retailers", "tax-consultant"])
        .map(|(v, who)| (who.to_string(), v))
        .collect();
    let reports = collusion_audit(&secret, &named, &schema, &domain).expect("audit succeeds");
    println!("secret: internal manufacturing cost  S(pr, c) :- ManufCost(pr, c)\n");
    for report in &reports {
        println!(
            "  coalition {:<40} -> {}",
            format!("{:?}", report.members),
            if report.verdict.secure {
                "secure"
            } else {
                "NOT secure"
            }
        );
    }
    let minimal = minimal_unsafe_coalitions(&reports);
    if minimal.is_empty() {
        println!("\n  no coalition can learn anything about the manufacturing cost\n");
    } else {
        println!(
            "\n  minimal unsafe coalitions: {:?}\n",
            minimal.iter().map(|r| &r.members).collect::<Vec<_>>()
        );
    }
}

fn audit_employee() {
    println!("=== Employee projections (Bob and Carol), published incrementally ===\n");
    // The paper's §6 operational question: the HR department publishes the
    // Bob projection first, then asks whether it is safe to ALSO publish
    // Carol's. A session answers each marginal question over the engine's
    // warm compiled artifacts and reports how much was reused.
    let schema = employee_schema();
    let (secret, views, domain) = intro_collusion();
    let named: Vec<(String, qvsec_cq::ConjunctiveQuery)> = views
        .iter()
        .cloned()
        .zip(["bob", "carol"])
        .map(|(v, who)| (who.to_string(), v))
        .collect();
    let steps =
        session_publication_audit(&secret, &named, &schema, &domain).expect("audit succeeds");
    for step in &steps {
        println!(
            "  step {} publish {:<8} -> {}{}",
            step.step,
            step.view,
            if step.report.secure == Some(false) {
                "NOT secure"
            } else {
                "secure"
            },
            if step.marginal.newly_insecure {
                "  (this view broke security)"
            } else {
                ""
            }
        );
        println!(
            "         cache: {} crit hits, {} class verdicts reused, {} misses",
            step.cache.crit_cache_hits,
            step.cache.class_verdicts_reused,
            step.cache.crit_cache_misses
        );
    }
    println!();
}

fn guess_probability_simulation() {
    println!("=== Guessing a phone number after the Bob/Carol collusion ===\n");
    // Four employees per department: the adversary who sees both projections
    // knows the four candidate phone numbers of Alice's department and picks
    // one at random — 25% success, exactly as the introduction argues.
    let schema = employee_schema();
    let mut domain = Domain::new();
    let employees = [
        ("alice", "sales", "p1"),
        ("bea", "sales", "p2"),
        ("carl", "sales", "p3"),
        ("dora", "sales", "p4"),
        ("ed", "hr", "p5"),
        ("fay", "hr", "p6"),
        ("gus", "hr", "p7"),
        ("hana", "hr", "p8"),
    ];
    for (n, d, p) in employees {
        domain.add(n);
        domain.add(d);
        domain.add(p);
    }
    let database = Instance::from_tuples(
        employees
            .iter()
            .map(|(n, d, p)| Tuple::from_names(&schema, &domain, "Employee", &[n, d, p]).unwrap()),
    );
    let v_bob = parse_query("VBob(n, d) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
    let v_carol = parse_query("VCarol(d, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
    let bob_answer = qvsec_cq::evaluate(&v_bob, &database);
    let carol_answer = qvsec_cq::evaluate(&v_carol, &database);

    // the adversary's strategy: find alice's department in Bob's view, then
    // guess uniformly among the phones Carol's view lists for it.
    let alice = domain.get("alice").unwrap();
    let alice_dept = bob_answer
        .iter()
        .find(|row| row[0] == alice)
        .map(|row| row[1])
        .expect("alice appears in Bob's view");
    let candidate_phones: Vec<_> = carol_answer
        .iter()
        .filter(|row| row[0] == alice_dept)
        .map(|row| row[1])
        .collect();
    let true_phone = domain.get("p1").unwrap();
    let mut rng = StdRng::seed_from_u64(2026);
    let trials = 100_000;
    let mut hits = 0usize;
    for _ in 0..trials {
        if candidate_phones.choose(&mut rng) == Some(&true_phone) {
            hits += 1;
        }
    }
    println!(
        "  departments of size {}, simulated guess success: {:.3} (theory: {:.3})\n",
        candidate_phones.len(),
        hits as f64 / trials as f64,
        1.0 / candidate_phones.len() as f64
    );

    // and the same adversary without the views: guessing among all phones
    let all_phones = 8.0;
    println!(
        "  without the views the success probability is only {:.3}",
        1.0 / all_phones
    );
    println!();
}

fn main() {
    audit_manufacturing();
    audit_employee();
    guess_probability_simulation();
}
