//! The correctness gate. Every served or batch verdict is compared with an
//! in-process `Engine::run_batch` reference on the same generated queries,
//! and every Sat witness is replayed with `Query::check_witness`.

use std::collections::HashMap;
use std::time::Duration;

use rzen_engine::{Engine, EngineConfig, Query, QueryBackend, QueryResult, Verdict, Witness};
use rzen_net::headers::{Header, Packet};
use rzen_net::spec::Spec;

use crate::client::{parse_response, Response, Sample};
use crate::gen::{Kind, Request};

pub fn verdict_name(v: &Verdict) -> &'static str {
    match v {
        Verdict::Sat(_) => "sat",
        Verdict::Unsat => "unsat",
        Verdict::Timeout => "timeout",
        Verdict::Cancelled => "cancelled",
        Verdict::Error(_) => "error",
    }
}

/// The reference engine: the SAT backend alone, sessions off. The system
/// under test runs the BDD/SAT portfolio with sessions on, so the
/// reference takes a different path to every verdict (and the cheapest:
/// a portfolio reference costs about three times as much on the fabrics).
pub fn reference_engine(jobs: usize) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        backend: QueryBackend::Smt,
        timeout: Some(Duration::from_secs(120)),
        cache: true,
        sessions: false,
    })
}

/// Reference answers for one request list on one model.
pub struct Reference {
    /// Engine query per request (`None` for `hsa`).
    pub queries: Vec<Option<Query>>,
    /// `sat`/`unsat` per engine request.
    pub verdicts: Vec<&'static str>,
    /// (reachable, log2 size) per `hsa` request.
    pub hsa: Vec<Option<(bool, Option<f64>)>>,
    /// The reference batch's own results, in request order of `queries`.
    pub results: Vec<QueryResult>,
}

/// Compute the reference for `reqs` on `spec`. Fails if the reference
/// itself is indecisive or a reference witness does not replay.
pub fn fabric_reference(spec: &Spec, reqs: &[Request], jobs: usize) -> Result<Reference, String> {
    let queries: Vec<Option<Query>> = reqs.iter().map(|r| r.query(spec)).collect();
    let batch: Vec<Query> = queries.iter().flatten().cloned().collect();
    let report = reference_engine(jobs).run_batch(&batch);
    let mut verdicts = vec![""; reqs.len()];
    let mut results = report.results.into_iter();
    let mut kept = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let Some(q) = q else { continue };
        let r = results.next().expect("one result per query");
        verdicts[i] = decisive(q, &r.verdict)?;
        kept.push(r);
    }
    let hsa = reqs
        .iter()
        .map(|r| (r.kind == Kind::Hsa).then(|| hsa_answer(spec, r.src, r.dst)))
        .collect();
    Ok(Reference {
        queries,
        verdicts,
        hsa,
        results: kept,
    })
}

/// `sat`/`unsat` for a decisive verdict whose witness replays; an error
/// otherwise.
pub fn decisive(q: &Query, v: &Verdict) -> Result<&'static str, String> {
    match v {
        Verdict::Sat(w) if q.check_witness(w) => Ok("sat"),
        Verdict::Sat(_) => Err(format!("reference {} witness fails replay", q.kind())),
        Verdict::Unsat => Ok("unsat"),
        other => Err(format!(
            "reference {} verdict {}",
            q.kind(),
            verdict_name(other)
        )),
    }
}

/// The exact reachable set the server's `hsa` op reports, computed
/// in-process.
pub fn hsa_answer(spec: &Spec, src: (usize, u8), dst: (usize, u8)) -> (bool, Option<f64>) {
    rzen::reset_ctx();
    let space = rzen::TransformerSpace::new();
    let set = rzen_net::analyses::hsa::reachable_set(&spec.net, &space, src.0, src.1, dst.0);
    let out = if set.is_empty() {
        (false, None)
    } else {
        (true, Some(set.count().log2()))
    };
    rzen::reset_ctx();
    out
}

/// Parse the server's witness rendering
/// (`dst=A src=B dport=N sport=N proto=N`) back into a packet.
pub fn parse_witness(s: &str) -> Option<Packet> {
    let mut f: HashMap<&str, &str> = HashMap::new();
    for kv in s.split_whitespace() {
        let (k, v) = kv.split_once('=')?;
        f.insert(k, v);
    }
    let ip = |k: &str| -> Option<u32> {
        let o: Vec<u32> = f
            .get(k)?
            .split('.')
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        (o.len() == 4 && o.iter().all(|&x| x < 256))
            .then(|| (o[0] << 24) | (o[1] << 16) | (o[2] << 8) | o[3])
    };
    let h = Header::new(
        ip("dst")?,
        ip("src")?,
        f.get("dport")?.parse().ok()?,
        f.get("sport")?.parse().ok()?,
        f.get("proto")?.parse().ok()?,
    );
    Some(Packet::plain(h))
}

/// Checks served responses against references, memoizing witness replays
/// (cache hits repeat the same witness many times).
///
/// A run fails on: a transport or server error, a shed or timed-out
/// request, a missing verdict, a verdict that differs from the reference,
/// a Sat verdict whose witness is missing or does not parse,
/// an `hsa` answer that differs from the in-process one, or an engine
/// witness (reference or batch) that fails `Query::check_witness`.
#[derive(Default)]
pub struct Checker {
    replayed: HashMap<(usize, usize, String), bool>,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
    pub failed: u64,
    /// Distinct served Sat witnesses whose rendering does not replay as an
    /// untunneled packet.
    pub served_unreplayable: u64,
}

impl Checker {
    /// Distinct served Sat witnesses seen so far.
    pub fn served_witnesses(&self) -> usize {
        self.replayed.len()
    }

    /// Check one sample against the requests and reference of the model
    /// it was answered on. Returns the parsed response.
    pub fn check(&mut self, s: &Sample, reqs: &[Request], reference: &Reference) -> Response {
        let r = parse_response(&s.resp);
        let problem = if let Some(e) = &r.error {
            Some(format!("error {e}"))
        } else {
            match reqs[s.req].kind {
                Kind::Hsa => {
                    let want = reference.hsa[s.req].expect("hsa reference");
                    let got = (r.reachable.unwrap_or(false), r.log2_count);
                    let same = want.0 == got.0
                        && match (want.1, got.1) {
                            (Some(a), Some(b)) => (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                            (None, None) => true,
                            _ => false,
                        };
                    (!same).then(|| format!("hsa answered {got:?}, reference {want:?}"))
                }
                _ => {
                    let want = reference.verdicts[s.req];
                    match r.verdict.as_deref() {
                        Some(v) if v != want => Some(format!("verdict {v}, reference {want}")),
                        None => Some("no verdict".to_string()),
                        Some("sat") => {
                            // The wire renders only the witness's overlay
                            // header, so a served witness can be replayed
                            // only as an untunneled packet. A missing or
                            // malformed witness fails; a well-formed one
                            // that needs an underlay header is counted,
                            // not failed: the verdict itself matched.
                            match r.witness.as_deref().map(|w| (w, parse_witness(w))) {
                                None => Some("sat verdict without a witness".to_string()),
                                Some((w, None)) => Some(format!("malformed witness {w:?}")),
                                Some((w, Some(p))) => {
                                    let key = (s.state, s.req, w.to_string());
                                    if !self.replayed.contains_key(&key) {
                                        let q = reference.queries[s.req]
                                            .as_ref()
                                            .expect("engine query");
                                        let ok = q.check_witness(&Witness::Packet(p));
                                        if !ok {
                                            self.served_unreplayable += 1;
                                        }
                                        self.replayed.insert(key, ok);
                                    }
                                    None
                                }
                            }
                        }
                        Some(_) => None,
                    }
                }
            }
        };
        if let Some(p) = problem {
            self.fail(format!("{} -> {p}", reqs[s.req].line.trim()));
        }
        r
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Check batch results against the reference verdicts of the same
    /// queries, replaying every Sat witness.
    pub fn check_batch(&mut self, queries: &[Query], got: &[QueryResult], want: &[&'static str]) {
        for ((q, r), w) in queries.iter().zip(got).zip(want) {
            match decisive(q, &r.verdict) {
                Ok(v) if v == *w => {}
                Ok(v) => self.fail(format!("{} verdict {v}, reference {w}", q.kind())),
                Err(e) => self.fail(e.replacen("reference", "batch", 1)),
            }
        }
    }
}
