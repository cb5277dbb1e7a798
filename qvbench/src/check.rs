//! Correctness checks, run after the timed phase.
//!
//! Every `publish`/`candidate` answer is compared with the verdict a fresh
//! in-process `AuditEngine` — built from the same spec the server runs —
//! gives for the same canonical (secret, view set), computed once per
//! distinct input. A request fails for the first of these reasons:
//!
//! * `refused` — a connection notice or a capacity/shutdown rejection
//!   instead of an answer (or no answer at all);
//! * `error` — any other `"ok": false`, or an unparsable line;
//! * `wrong_verdict` — `secure`/`class` differ from the reference, or an
//!   `open`/`snapshot`/`restore` reports the wrong view count;
//! * `mc_contradiction` — the reference verdict is secure, yet the
//!   Monte-Carlo independence member of the same answer reports
//!   dependence.

use crate::gen::{Expect, Plan, Req};
use qvsec::engine::AuditRequest;
use qvsec_cq::ConjunctiveQuery;
use std::collections::{BTreeMap, HashMap};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Reason {
    Error,
    Refused,
    WrongVerdict,
    McContradiction,
}

impl Reason {
    pub const ALL: [Reason; 4] = [
        Reason::Error,
        Reason::Refused,
        Reason::WrongVerdict,
        Reason::McContradiction,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Reason::Error => "error",
            Reason::Refused => "refused",
            Reason::WrongVerdict => "wrong_verdict",
            Reason::McContradiction => "mc_contradiction",
        }
    }
}

/// The reference verdict of one audit input.
#[derive(Clone, Debug)]
pub struct Verdict {
    pub secure: Option<bool>,
    pub class: String,
}

/// Builds the in-process registry a spec declares (no store), the way the
/// server builds its own.
pub fn registry_for(spec: &str) -> Result<qvsec_serve::SessionRegistry, String> {
    let spec = qvsec_cli::parse_serve_spec(spec).map_err(|e| e.to_string())?;
    qvsec_cli::build_registry(&spec).map_err(|e| e.to_string())
}

/// Parses every canonical query of a plan against `registry`'s schema.
pub fn parse_queries(
    registry: &qvsec_serve::SessionRegistry,
    plan: &Plan,
) -> Result<Vec<ConjunctiveQuery>, String> {
    plan.queries
        .iter()
        .map(|q| registry.parse(q).map_err(|e| e.to_string()))
        .collect()
}

pub fn audit_request(queries: &[ConjunctiveQuery], input: &[u16]) -> AuditRequest {
    let views: Vec<ConjunctiveQuery> = input[1..]
        .iter()
        .map(|i| queries[*i as usize].clone())
        .collect();
    AuditRequest::new(queries[input[0] as usize].clone(), views)
}

/// Reference verdicts for every distinct audit input among `reqs`, from a
/// fresh engine.
pub fn references<'a>(
    plan: &Plan,
    reqs: impl Iterator<Item = &'a Req>,
) -> Result<HashMap<Vec<u16>, Verdict>, String> {
    let registry = registry_for(&plan.spec)?;
    let queries = parse_queries(&registry, plan)?;
    let mut out = HashMap::new();
    for req in reqs {
        let Expect::Audit(input) = &req.expect else {
            continue;
        };
        if out.contains_key(input) {
            continue;
        }
        let report = registry
            .engine()
            .audit(&audit_request(&queries, input))
            .map_err(|e| format!("reference audit: {e}"))?;
        let class = serde_json::to_value(&report.class)
            .ok()
            .and_then(|v| v.as_str().map(str::to_string))
            .unwrap_or_default();
        out.insert(
            input.clone(),
            Verdict {
                secure: report.secure,
                class,
            },
        );
    }
    Ok(out)
}

/// The raw value token of the first `"key":` in a compact JSON line (the
/// server writes no whitespace). Answers are scanned rather than parsed:
/// the fields checked occur first in document order, and the scan keeps
/// the checks cheap next to the run.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let at = text.find(&pattern)? + pattern.len();
    let rest = &text[at..];
    if let Some(body) = rest.strip_prefix('"') {
        return Some(&body[..body.find('"')?]);
    }
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Checks one answer; `None` when it is correct.
pub fn check(
    req: &Req,
    response: Option<&str>,
    refs: &HashMap<Vec<u16>, Verdict>,
) -> Option<Reason> {
    let Some(text) = response else {
        return Some(Reason::Refused);
    };
    if text.starts_with(r#"{"notice""#) {
        return Some(Reason::Refused);
    }
    if !text.starts_with(r#"{"ok":true,"#) {
        return Some(match field(text, "kind") {
            Some("server_at_capacity" | "shutting_down") => Reason::Refused,
            _ => Reason::Error,
        });
    }
    match &req.expect {
        Expect::Ok => None,
        Expect::Views(n) => (field(text, "views_published") != Some(n.to_string().as_str()))
            .then_some(Reason::WrongVerdict),
        Expect::Audit(input) => {
            let reference = refs.get(input)?;
            let secure = match field(text, "secure") {
                Some("true") => Some(true),
                Some("false") => Some(false),
                _ => None,
            };
            if secure != reference.secure || field(text, "class") != Some(reference.class.as_str())
            {
                return Some(Reason::WrongVerdict);
            }
            (reference.secure == Some(true) && field(text, "independent") == Some("false"))
                .then_some(Reason::McContradiction)
        }
    }
}

/// Failure counts by reason.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    pub attempted: usize,
    pub by_reason: BTreeMap<Reason, usize>,
}

impl Tally {
    pub fn add(&mut self, reason: Option<Reason>) {
        self.attempted += 1;
        if let Some(r) = reason {
            *self.by_reason.entry(r).or_default() += 1;
        }
    }

    pub fn failed(&self) -> usize {
        self.by_reason.values().sum()
    }

    pub fn count(&self, r: Reason) -> usize {
        self.by_reason.get(&r).copied().unwrap_or(0)
    }

    /// Every answer the server gave carried the right decision. The known
    /// Monte-Carlo defect (`mc_contradiction`) is counted as a failure but
    /// does not make the decision wrong.
    pub fn correct(&self) -> bool {
        self.count(Reason::Error) + self.count(Reason::Refused) + self.count(Reason::WrongVerdict)
            == 0
    }
}
