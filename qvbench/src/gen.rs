//! Seeded, fixed-count request generation for the three workloads.
//!
//! A workload is a server spec plus request lines: an untimed warm-up and
//! one timed sequence per connection. The seed only chooses spellings
//! (variable names, head names, datalog vs SQL), tenant interleaving and
//! which of a set of statistically equivalent views a tenant draws; the
//! number of requests of each kind and the shape of every audit are fixed
//! by the workload, so the cost of a run does not depend on the seed.
//!
//! Every request carries what its correct answer must satisfy (see
//! [`Expect`]); the checks run after the timed phase.

use crate::util::Rng;

/// Latency class of a request (the end-to-end metrics group by it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Publish,
    Candidate,
    /// Runs no audit and writes nothing: `ping`, `stats`, `explain`,
    /// `show_*` and `sql` `SHOW ...`.
    Light,
    /// `open`, `snapshot`, `restore`, `persist`.
    Other,
}

/// What a correct answer to one request satisfies, beyond `"ok": true`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expect {
    Ok,
    /// `publish`/`candidate`: the audit input, as indices into
    /// [`Plan::queries`] (secret first, then the views in audit order).
    Audit(Vec<u16>),
    /// `open`/`snapshot`/`restore`: the view count the response reports.
    Views(usize),
}

#[derive(Clone, Debug)]
pub struct Req {
    pub line: String,
    pub class: Class,
    pub expect: Expect,
}

/// One generated workload.
#[derive(Debug)]
pub struct Plan {
    pub workload: &'static str,
    /// The server spec (JSON) without a `store` block.
    pub spec: String,
    /// `serve --store` over a prepared log store.
    pub durable: bool,
    /// Canonical datalog text of every query an audit names.
    pub queries: Vec<String>,
    /// Untimed warm-up, one request list per connection (run in parallel).
    pub warmup: Vec<Vec<Req>>,
    /// Timed requests, one closed-loop list per connection.
    pub timed: Vec<Vec<Req>>,
    /// Fresh servers the end-to-end run replays the timed sequence on.
    pub rounds: usize,
    /// Blocks each replay of the timed phase is split into (see
    /// `end_to_end`).
    pub blocks: usize,
    /// Fixed tail percentile per class (publish, candidate, light), taken
    /// over the class's latencies pooled across blocks and servers.
    pub tail_pct: [f64; 3],
}

impl Plan {
    pub fn timed_count(&self) -> usize {
        self.timed.iter().map(Vec::len).sum()
    }

    /// The timed requests of every connection merged round-robin into one
    /// sequence (the order the traced run replays them in). Per-tenant
    /// order is preserved because tenants never span connections.
    pub fn merged_timed(&self) -> Vec<&Req> {
        merge(&self.timed)
    }

    pub fn merged_warmup(&self) -> Vec<&Req> {
        merge(&self.warmup)
    }
}

fn merge(lists: &[Vec<Req>]) -> Vec<&Req> {
    let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for i in 0..longest {
        for list in lists {
            if let Some(r) = list.get(i) {
                out.push(r);
            }
        }
    }
    out
}

pub const WORKLOADS: [&str; 3] = ["warm_mix", "deep_sessions", "durable_restart"];

/// Builds the plan of `workload` for `seed`. `seconds` scales the fixed
/// request count (the same arguments always give the same sequence).
pub fn plan(workload: &str, seed: u64, seconds: u64) -> Option<Plan> {
    let seconds = seconds.max(1) as usize;
    Some(match workload {
        "warm_mix" => warm_mix(seed, seconds),
        "deep_sessions" => deep_sessions(seed, seconds),
        "durable_restart" => durable_restart(seed, seconds),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Query templates over Employee(name, department, phone).

const ATTRS: [&str; 3] = ["name", "department", "phone"];
const CONSTANTS: [&str; 3] = ["ann", "bea", "Mgmt"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Term {
    Var(u8),
    Const(&'static str),
}

/// A single-atom query `H(head...) :- Employee(t0, t1, t2)`.
#[derive(Clone, Debug)]
struct Tpl {
    head: Vec<u8>,
    terms: [Term; 3],
}

impl Tpl {
    fn new(head: &[u8], terms: [Term; 3]) -> Self {
        Tpl {
            head: head.to_vec(),
            terms,
        }
    }

    fn datalog(&self, head_name: &str, names: &[&str]) -> String {
        let term = |t: &Term| match t {
            Term::Var(v) => names[*v as usize].to_string(),
            Term::Const(c) => format!("'{c}'"),
        };
        let head: Vec<String> = self
            .head
            .iter()
            .map(|v| names[*v as usize].to_string())
            .collect();
        format!(
            "{head_name}({}) :- Employee({}, {}, {})",
            head.join(", "),
            term(&self.terms[0]),
            term(&self.terms[1]),
            term(&self.terms[2])
        )
    }

    fn canonical(&self, head_name: &str) -> String {
        self.datalog(head_name, &["v0", "v1", "v2", "v3"])
    }

    /// The safe-SQL spelling: head variables become the selected columns,
    /// constants become `WHERE` equalities.
    fn sql(&self) -> String {
        let column_of = |v: u8| {
            let at = self
                .terms
                .iter()
                .position(|t| *t == Term::Var(v))
                .expect("head var in body");
            ATTRS[at]
        };
        let cols: Vec<&str> = self.head.iter().map(|v| column_of(*v)).collect();
        let conds: Vec<String> = self
            .terms
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t {
                Term::Const(c) => Some(format!("{} = '{c}'", ATTRS[i])),
                Term::Var(_) => None,
            })
            .collect();
        let mut text = format!("SELECT {} FROM Employee", cols.join(", "));
        if !conds.is_empty() {
            text.push_str(" WHERE ");
            text.push_str(&conds.join(" AND "));
        }
        text
    }
}

const VAR_NAMES: [&str; 20] = [
    "n", "d", "p", "x", "y", "z", "u", "w", "a", "b", "c", "k", "emp", "dep", "ph", "who", "col",
    "r1", "r2", "q",
];
const VIEW_HEADS: [&str; 6] = ["V", "W", "View", "Pub", "Out", "Feed"];

/// A random α-renaming: four distinct variable names.
fn var_names(rng: &mut Rng) -> Vec<&'static str> {
    let mut names = VAR_NAMES.to_vec();
    rng.shuffle(&mut names);
    names.truncate(4);
    names
}

/// Request fields spelling a view: `"view": datalog` or `"sql": ..., "name": ...`.
fn view_fields(tpl: &Tpl, rng: &mut Rng) -> String {
    let head = *rng.pick(&VIEW_HEADS);
    if rng.chance(1, 2) {
        format!(r#""view": "{}""#, tpl.datalog(head, &var_names(rng)))
    } else {
        format!(r#""sql": "{}", "name": "{head}""#, tpl.sql())
    }
}

/// Request fields spelling a secret: `"secret"` or `"secret_sql"`.
fn secret_fields(tpl: &Tpl, rng: &mut Rng) -> String {
    if rng.chance(1, 2) {
        format!(r#""secret": "{}""#, tpl.datalog("S", &var_names(rng)))
    } else {
        format!(r#""secret_sql": "{}", "secret_name": "S""#, tpl.sql())
    }
}

/// The vocabulary `warm_mix` and `durable_restart` draw from: secrets
/// first, then views (indices into [`Plan::queries`]).
fn vocabulary() -> (Vec<Tpl>, Vec<Tpl>) {
    use Term::{Const, Var};
    let secrets = vec![
        Tpl::new(&[0, 2], [Var(0), Var(1), Var(2)]),
        Tpl::new(&[0], [Var(0), Const("ann"), Var(2)]),
        Tpl::new(&[2], [Var(0), Const("Mgmt"), Var(2)]),
    ];
    let views = vec![
        Tpl::new(&[0, 1], [Var(0), Var(1), Var(2)]),
        Tpl::new(&[1, 2], [Var(0), Var(1), Var(2)]),
        Tpl::new(&[0], [Var(0), Const("Mgmt"), Var(2)]),
        Tpl::new(&[0, 2], [Var(0), Const("Mgmt"), Var(2)]),
        Tpl::new(&[1], [Var(0), Var(1), Var(2)]),
        Tpl::new(&[2], [Const("ann"), Var(1), Var(2)]),
        Tpl::new(&[0], [Var(0), Var(1), Const("bea")]),
    ];
    (secrets, views)
}

fn canonical_queries(secrets: &[Tpl], views: &[Tpl]) -> Vec<String> {
    secrets
        .iter()
        .map(|t| t.canonical("S"))
        .chain(views.iter().map(|t| t.canonical("V")))
        .collect()
}

// ---------------------------------------------------------------------------
// Request builders.

fn req(line: String, class: Class, expect: Expect) -> Req {
    Req {
        line,
        class,
        expect,
    }
}

fn open(tenant: &str, secret: &Tpl, views: usize, rng: &mut Rng) -> Req {
    req(
        format!(
            r#"{{"op": "open", "tenant": "{tenant}", {}}}"#,
            secret_fields(secret, rng)
        ),
        Class::Other,
        Expect::Views(views),
    )
}

fn snapshot(tenant: &str, label: &str, views: usize) -> Req {
    req(
        format!(r#"{{"op": "snapshot", "tenant": "{tenant}", "label": "{label}"}}"#),
        Class::Other,
        Expect::Views(views),
    )
}

fn restore(tenant: &str, label: &str, views: usize) -> Req {
    req(
        format!(r#"{{"op": "restore", "tenant": "{tenant}", "label": "{label}"}}"#),
        Class::Other,
        Expect::Views(views),
    )
}

/// A `publish` or `candidate` of `view` for a tenant whose audit input is
/// `audit` (secret id, then every view id including this one). With
/// `secret`, the request re-states the tenant's secret, which the server
/// re-validates.
fn audit(
    op: &str,
    tenant: &str,
    view: &Tpl,
    secret: Option<&Tpl>,
    audit: Vec<u16>,
    rng: &mut Rng,
) -> Req {
    let mut fields = view_fields(view, rng);
    if let Some(secret) = secret {
        fields.push_str(", ");
        fields.push_str(&secret_fields(secret, rng));
    }
    let class = if op == "publish" {
        Class::Publish
    } else {
        Class::Candidate
    };
    req(
        format!(r#"{{"op": "{op}", "tenant": "{tenant}", {fields}}}"#),
        class,
        Expect::Audit(audit),
    )
}

/// Deals light requests: no audit, no write. Kinds, and the view an
/// `explain` or `SHOW CANONICAL` names, come from shuffled decks, so every
/// stretch of a run holds each in the same proportion and the light
/// percentiles fall at the same place in the mix whatever the seed.
#[derive(Default)]
struct Lights {
    kinds: Vec<usize>,
    views: Vec<usize>,
}

impl Lights {
    fn next(&mut self, views: &[Tpl], rng: &mut Rng) -> Req {
        // Sixteen cards: two of each of eight kinds, the two `sql` `SHOW`
        // cards being one of each variant.
        let kind = deal(&mut self.kinds, 16, rng);
        let mut view = || &views[deal(&mut self.views, views.len(), rng)];
        let line = match kind {
            0 | 1 => r#"{"op": "ping"}"#.to_string(),
            2 | 3 => r#"{"op": "stats"}"#.to_string(),
            4..=7 => {
                let v = view();
                format!(r#"{{"op": "explain", {}}}"#, view_fields(v, rng))
            }
            8 | 9 => r#"{"op": "show_tables"}"#.to_string(),
            10 | 11 => r#"{"op": "show_columns", "table": "Employee"}"#.to_string(),
            12 => r#"{"op": "sql", "sql": "SHOW TABLES"}"#.to_string(),
            13 => r#"{"op": "sql", "sql": "SHOW COLUMNS FROM Employee"}"#.to_string(),
            _ => format!(
                r#"{{"op": "sql", "sql": "SHOW CANONICAL {}"}}"#,
                view().sql()
            ),
        };
        req(line, Class::Light, Expect::Ok)
    }
}

/// The next card of a deck of `0..n`, reshuffled whenever it runs out.
fn deal(deck: &mut Vec<usize>, n: usize, rng: &mut Rng) -> usize {
    if deck.is_empty() {
        deck.extend(0..n);
        rng.shuffle(deck);
    }
    deck.pop().expect("refilled")
}

fn tenant_name(prefix: &str, i: usize) -> String {
    format!("{prefix}{i:03}")
}

const SPEC_HEAD: &str = r#""relations": [{"name": "Employee", "attributes": ["name", "department", "phone"]}], "constants": ["ann", "bea", "Mgmt"]"#;

// ---------------------------------------------------------------------------
// warm_mix

/// Tenants of `warm_mix`.
pub const WARM_TENANTS: usize = 64;
/// Cache budget of `warm_mix`: 64 MiB, far above the ~0.2 MiB the
/// vocabulary's artifacts and audit verdicts occupy, so nothing is evicted.
pub const WARM_CACHE_BUDGET: usize = 64 << 20;
/// Timed requests per second of `--seconds` (calibrated on a 2-core box).
const WARM_RATE: usize = 12000;

/// Many tenants, short stationary sessions over a 3-secret × 7-view
/// vocabulary spelled many ways; the warm-up audits every input the timed
/// phase can produce, so every timed audit hits the whole-audit memo.
fn warm_mix(seed: u64, seconds: usize) -> Plan {
    let mut rng = Rng::new(seed);
    let (secrets, views) = vocabulary();
    let vid = |v: usize| (secrets.len() + v) as u16;
    let secret_of = |t: usize| t % secrets.len();

    // Warm-up on one connection: open every tenant at its empty start
    // state, then sweep every (secret, view) and (secret, view, view)
    // audit once through the first tenant of each secret.
    let mut warm = Vec::new();
    for t in 0..WARM_TENANTS {
        let name = tenant_name("w", t);
        warm.push(open(&name, &secrets[secret_of(t)], 0, &mut rng));
        warm.push(snapshot(&name, "start", 0));
    }
    for s in 0..secrets.len() {
        let name = tenant_name("w", s);
        for y in 0..views.len() {
            warm.push(audit(
                "candidate",
                &name,
                &views[y],
                None,
                vec![s as u16, vid(y)],
                &mut rng,
            ));
            warm.push(audit(
                "publish",
                &name,
                &views[y],
                None,
                vec![s as u16, vid(y)],
                &mut rng,
            ));
            for (z, view) in views.iter().enumerate() {
                let input = vec![s as u16, vid(y), vid(z)];
                warm.push(audit("candidate", &name, view, None, input, &mut rng));
            }
            warm.push(restore(&name, "start", 0));
        }
    }

    // Timed: each connection owns half the tenants. Half the requests are
    // light; the rest advance a random tenant's cycle
    // candidate X → publish Y → candidate Z → restore start.
    let per_conn = WARM_RATE * seconds / 2;
    let mut timed = Vec::new();
    for c in 0..2 {
        let tenants: Vec<usize> = (0..WARM_TENANTS).filter(|t| t % 2 == c).collect();
        let mut phase = vec![0usize; WARM_TENANTS];
        let mut published = vec![0usize; WARM_TENANTS];
        let mut kinds: Vec<bool> = (0..per_conn).map(|i| i % 2 == 0).collect();
        rng.shuffle(&mut kinds);
        let mut list = Vec::with_capacity(per_conn);
        let mut lights = Lights::default();
        for is_light in kinds {
            if is_light {
                list.push(lights.next(&views, &mut rng));
                continue;
            }
            let t = *rng.pick(&tenants);
            let name = tenant_name("w", t);
            let s = secret_of(t);
            // A quarter of the audits re-state the secret (re-validated).
            let restate = rng.chance(1, 4).then_some(&secrets[s]);
            let v = rng.below(views.len());
            let r = match phase[t] {
                0 => audit(
                    "candidate",
                    &name,
                    &views[v],
                    restate,
                    vec![s as u16, vid(v)],
                    &mut rng,
                ),
                1 => {
                    published[t] = v;
                    audit(
                        "publish",
                        &name,
                        &views[v],
                        restate,
                        vec![s as u16, vid(v)],
                        &mut rng,
                    )
                }
                2 => {
                    let input = vec![s as u16, vid(published[t]), vid(v)];
                    audit("candidate", &name, &views[v], restate, input, &mut rng)
                }
                _ => restore(&name, "start", 0),
            };
            phase[t] = (phase[t] + 1) % 4;
            list.push(r);
        }
        timed.push(list);
    }

    let spec = format!(
        r#"{{{SPEC_HEAD}, "dictionary": {{"probability": [1, 2], "cap": 4096, "samples": 512, "seed": 7}}, "defaults": {{"depth": "probabilistic", "minute_threshold": [1, 10]}}, "cache_budget_bytes": {WARM_CACHE_BUDGET}, "report_cap": 0, "shards": 8, "idle_timeout_secs": 3600}}"#
    );
    Plan {
        workload: "warm_mix",
        spec,
        durable: false,
        queries: canonical_queries(&secrets, &views),
        warmup: vec![warm],
        timed,
        rounds: 1,
        blocks: 10,
        tail_pct: [97.0, 97.0, 99.0],
    }
}

// ---------------------------------------------------------------------------
// deep_sessions

/// View-chain depth of `deep_sessions` (views published at the end of a
/// cycle; the deepest audits cover this many views).
pub const DEEP_K: usize = 7;
/// Seed of the fixed per-tenant chain layouts of `deep_sessions`.
const DEEP_LAYOUT_SEED: u64 = 0xdee9_c4a1;
/// Tenants of `deep_sessions` (half on each connection).
const DEEP_TENANTS: usize = 8;
/// Timed chain cycles per tenant per 10 s of `--seconds`, over all rounds.
const DEEP_CYCLES_PER_10S: usize = 17;
/// Servers `deep_sessions` replays its timed sequence on. Its peak
/// resident set moves with how the allocator's per-thread arenas happen to
/// fill, so it is the mean over several servers.
const DEEP_ROUNDS: usize = 5;

/// The statistically interchangeable views `deep_sessions` draws from: one
/// head variable, one constant and one existential variable. Under the
/// uniform dictionary every such view has 3 possible answers and the same
/// answer distribution, so any chain of them costs about the same.
fn one_constant_views() -> Vec<Tpl> {
    let mut out = Vec::new();
    for head in 0..3 {
        for at in 0..3 {
            if at == head {
                continue;
            }
            for c in CONSTANTS {
                let mut terms = [Term::Var(0); 3];
                let mut next = 1u8;
                for (i, slot) in terms.iter_mut().enumerate() {
                    *slot = if i == head {
                        Term::Var(0)
                    } else if i == at {
                        Term::Const(c)
                    } else {
                        next += 1;
                        Term::Var(next - 1)
                    };
                }
                out.push(Tpl::new(&[0], terms));
            }
        }
    }
    out
}

/// Few tenants, each publishing its own chain of `DEEP_K` distinct views
/// with a `candidate` probe at every depth, then restoring to the start;
/// the engine runs `specs/serve_employee.json`'s settings, whose 4 KiB
/// cache budget is far below the working set.
fn deep_sessions(seed: u64, seconds: usize) -> Plan {
    let mut rng = Rng::new(seed);
    let pool = one_constant_views();
    let queries: Vec<String> = pool
        .iter()
        .map(|t| t.canonical("S"))
        .chain(pool.iter().map(|t| t.canonical("V")))
        .collect();
    let secret_id = |i: usize| i as u16;
    let view_id = |i: usize| (pool.len() + i) as u16;

    // Per tenant: a fixed layout — a permutation of the pool giving its
    // secret, chain V1..VK and probes C1..CK — relabelled by a seeded
    // permutation of the constants and one of the columns. Relabelling maps
    // the pool onto itself and, under the uniform dictionary, leaves every
    // audit's answer distribution unchanged, so the seed varies which views
    // a tenant publishes but not what its chain costs.
    struct Tenant {
        name: String,
        secret: usize,
        chain: Vec<usize>,
        probes: Vec<usize>,
    }
    let mut layout = Rng::new(DEEP_LAYOUT_SEED);
    let tenants: Vec<Tenant> = (0..DEEP_TENANTS)
        .map(|t| {
            let mut order: Vec<usize> = (0..pool.len()).collect();
            layout.shuffle(&mut order);
            let mut constants = CONSTANTS;
            rng.shuffle(&mut constants);
            let mut columns = [0usize, 1, 2];
            rng.shuffle(&mut columns);
            let relabel = |i: usize| {
                let tpl = &pool[i];
                let mut terms = tpl.terms;
                for (from, term) in tpl.terms.iter().enumerate() {
                    terms[columns[from]] = match term {
                        Term::Const(c) => Term::Const(
                            constants[CONSTANTS.iter().position(|k| k == c).expect("constant")],
                        ),
                        var => *var,
                    };
                }
                pool.iter()
                    .position(|p| p.head == tpl.head && p.terms == terms)
                    .expect("pool is closed under relabelling")
            };
            Tenant {
                name: tenant_name("d", t),
                secret: relabel(order[0]),
                chain: order[1..=DEEP_K].iter().map(|i| relabel(*i)).collect(),
                probes: order[DEEP_K + 1..=2 * DEEP_K]
                    .iter()
                    .map(|i| relabel(*i))
                    .collect(),
            }
        })
        .collect();

    // One chain cycle of a tenant, up to `depth`: candidate C_k then
    // publish V_k at every depth k (each followed by a light request when
    // `lights` deals them), then restore to the empty start.
    let cycle =
        |t: &Tenant, depth: usize, mut lights: Option<&mut Lights>, rng: &mut Rng| -> Vec<Req> {
            let mut out = Vec::new();
            for k in 0..depth {
                let prefix: Vec<u16> = std::iter::once(secret_id(t.secret))
                    .chain(t.chain[..k].iter().map(|v| view_id(*v)))
                    .collect();
                let mut probe = prefix.clone();
                probe.push(view_id(t.probes[k]));
                out.push(audit(
                    "candidate",
                    &t.name,
                    &pool[t.probes[k]],
                    None,
                    probe,
                    rng,
                ));
                if let Some(lights) = lights.as_deref_mut() {
                    out.push(lights.next(&pool, rng));
                }
                let mut step = prefix;
                step.push(view_id(t.chain[k]));
                out.push(audit(
                    "publish",
                    &t.name,
                    &pool[t.chain[k]],
                    None,
                    step,
                    rng,
                ));
                if let Some(lights) = lights.as_deref_mut() {
                    out.push(lights.next(&pool, rng));
                }
            }
            out.push(restore(&t.name, "start", 0));
            out
        };

    // Warm-up: open every tenant, then run its whole chain once (cold
    // compiles and the sample pool), two connections in parallel.
    let mut warmup = vec![Vec::new(), Vec::new()];
    for (i, t) in tenants.iter().enumerate() {
        let list = &mut warmup[i % 2];
        list.push(open(&t.name, &pool[t.secret], 0, &mut rng));
        list.push(snapshot(&t.name, "start", 0));
        list.extend(cycle(t, DEEP_K, None, &mut rng));
    }

    // Timed: two connections, each interleaving its tenants' cycles one
    // request at a time. Two keep both cores busy: with one, a core idles
    // between requests, and every answer then waits on the host waking it,
    // which made the latencies swing with the host's load.
    let cycles = (DEEP_CYCLES_PER_10S * seconds)
        .div_ceil(10 * DEEP_ROUNDS)
        .max(1);
    let mut timed = Vec::new();
    for c in 0..2 {
        let mine: Vec<&Tenant> = tenants.iter().skip(c).step_by(2).collect();
        let mut lights = Lights::default();
        let mut streams: Vec<Vec<Req>> = mine
            .iter()
            .map(|t| {
                (0..cycles)
                    .flat_map(|_| cycle(t, DEEP_K, Some(&mut lights), &mut rng))
                    .collect()
            })
            .collect();
        let mut list = Vec::new();
        let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
        let mut iters: Vec<_> = streams.iter_mut().map(|s| s.drain(..)).collect();
        for _ in 0..longest {
            for it in iters.iter_mut() {
                if let Some(r) = it.next() {
                    list.push(r);
                }
            }
        }
        timed.push(list);
    }

    let spec = format!(
        r#"{{{SPEC_HEAD}, "dictionary": {{"probability": [1, 2], "cap": 4096, "samples": 512, "seed": 7}}, "defaults": {{"depth": "probabilistic", "minute_threshold": [1, 10]}}, "cache_budget_bytes": 4096, "report_cap": 16, "shards": 8, "idle_timeout_secs": 3600}}"#
    );
    Plan {
        workload: "deep_sessions",
        spec,
        durable: false,
        queries,
        warmup,
        timed,
        rounds: DEEP_ROUNDS,
        blocks: 2,
        tail_pct: [90.0, 90.0, 99.0],
    }
}

// ---------------------------------------------------------------------------
// durable_restart

/// Tenants journaled by the prepared history (and driven by the runs).
pub const DURABLE_TENANTS: usize = 32;
/// Seed of the prepared history (fixed: every run restarts from it).
pub const PREP_SEED: u64 = 0x005e_ed0f_d15c;
/// Timed requests per second of `--seconds`, over all rounds.
const DURABLE_RATE: usize = 48;
/// Servers `durable_restart` replays its timed sequence on, each from a
/// fresh copy of the prepared store; its peak resident set moves with how
/// the journal rewrites of the two connections overlap.
const DURABLE_ROUNDS: usize = 3;

/// The spec the durable store is prepared and served with.
pub fn durable_spec() -> String {
    format!(
        r#"{{{SPEC_HEAD}, "defaults": {{"depth": "exact"}}, "shards": 8, "idle_timeout_secs": 3600}}"#
    )
}

/// Base view of durable tenant `t` (published before its `start` snapshot).
fn durable_base(t: usize, views: usize) -> usize {
    t % views
}

/// The fixed history that builds the durable store: open every tenant,
/// publish its base view, snapshot `start`, then cycle publish → candidate
/// → restore. The preparation step drives it until the journal passes the
/// store's compaction threshold.
pub fn prep_history() -> impl Iterator<Item = Req> {
    let mut rng = Rng::new(PREP_SEED);
    let (secrets, views) = vocabulary();
    let nv = views.len();
    let vid = move |v: usize| (3 + v) as u16;
    let mut round = 0usize;
    let mut buffer: std::collections::VecDeque<Req> = Default::default();
    std::iter::from_fn(move || {
        while buffer.is_empty() {
            for t in 0..DURABLE_TENANTS {
                let name = tenant_name("p", t);
                let s = t % secrets.len();
                let base = durable_base(t, nv);
                if round == 0 {
                    buffer.push_back(open(&name, &secrets[s], 0, &mut rng));
                    let input = vec![s as u16, vid(base)];
                    buffer.push_back(audit("publish", &name, &views[base], None, input, &mut rng));
                    buffer.push_back(snapshot(&name, "start", 1));
                    continue;
                }
                let y = rng.below(nv);
                let z = rng.below(nv);
                let input = vec![s as u16, vid(base), vid(y)];
                buffer.push_back(audit("publish", &name, &views[y], None, input, &mut rng));
                let input = vec![s as u16, vid(base), vid(y), vid(z)];
                buffer.push_back(audit("candidate", &name, &views[z], None, input, &mut rng));
                buffer.push_back(restore(&name, "start", 1));
            }
            round += 1;
        }
        buffer.pop_front()
    })
}

/// `serve --store` restarted over the prepared store (journal past the
/// 8 MiB compaction threshold): two connections mix journaled state
/// writes with reads.
fn durable_restart(seed: u64, seconds: usize) -> Plan {
    let mut rng = Rng::new(seed);
    let (secrets, views) = vocabulary();
    let nv = views.len();
    let vid = |v: usize| (secrets.len() + v) as u16;
    let per_conn = DURABLE_RATE * seconds / (2 * DURABLE_ROUNDS);
    let mut timed = Vec::new();
    for c in 0..2 {
        let tenants: Vec<usize> = (0..DURABLE_TENANTS).filter(|t| t % 2 == c).collect();
        // Per connection, a fixed mix of 24-request rounds: 4 publish, 4
        // candidate, 2 restore, 1 snapshot, 1 open (the journaled writes),
        // 11 light reads and 1 persist.
        const ROUND: [u8; 24] = [
            0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6,
        ];
        let mut kinds: Vec<u8> = ROUND.iter().copied().cycle().take(per_conn).collect();
        rng.shuffle(&mut kinds);
        // Each tenant sits at `start` (its base view) or up to two
        // publishes past it: a publish picks a tenant with room, a restore
        // one past `start` (falling back to any tenant when none
        // qualifies).
        let mut published: Vec<Vec<usize>> = vec![Vec::new(); DURABLE_TENANTS];
        let mut lights = Lights::default();
        let mut list = Vec::with_capacity(per_conn);
        for kind in kinds {
            let pick = |rng: &mut Rng, fits: &dyn Fn(usize) -> bool| {
                let fits: Vec<usize> = tenants
                    .iter()
                    .copied()
                    .filter(|t| fits(published[*t].len()))
                    .collect();
                *rng.pick(if fits.is_empty() { &tenants } else { &fits })
            };
            let t = match kind {
                0 => pick(&mut rng, &|depth| depth < 2),
                2 => pick(&mut rng, &|depth| depth > 0),
                _ => pick(&mut rng, &|_| true),
            };
            let name = tenant_name("p", t);
            let s = t % secrets.len();
            let base = durable_base(t, nv);
            let mut prefix = vec![s as u16, vid(base)];
            prefix.extend(published[t].iter().map(|v| vid(*v)));
            let depth = prefix.len() - 1;
            let v = rng.below(nv);
            list.push(match kind {
                0 if published[t].len() < 2 => {
                    published[t].push(v);
                    prefix.push(vid(v));
                    audit("publish", &name, &views[v], None, prefix, &mut rng)
                }
                0 | 2 => {
                    published[t].clear();
                    restore(&name, "start", 1)
                }
                1 => {
                    prefix.push(vid(v));
                    audit("candidate", &name, &views[v], None, prefix, &mut rng)
                }
                3 => snapshot(&name, "last", depth),
                4 => open(&name, &secrets[s], depth, &mut rng),
                5 => lights.next(&views, &mut rng),
                _ => req(r#"{"op": "persist"}"#.to_string(), Class::Other, Expect::Ok),
            });
        }
        timed.push(list);
    }
    Plan {
        workload: "durable_restart",
        spec: durable_spec(),
        durable: true,
        queries: canonical_queries(&secrets, &views),
        warmup: vec![vec![req(
            r#"{"op": "ping"}"#.to_string(),
            Class::Light,
            Expect::Ok,
        )]],
        timed,
        rounds: DURABLE_ROUNDS,
        blocks: 1,
        tail_pct: [80.0, 80.0, 92.0],
    }
}
