//! The traced replay: a seeded sample of a workload's inputs run through
//! each crate's public functions, with a span around every call.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rzen::backend::bitblast::BitCompiler;
use rzen::backend::smt::CnfAlg;
use rzen::{Budget, ExprId, Zen, ZenFunction};
use rzen_engine::{Query, QueryResult, Verdict};
use rzen_net::device::{forward_along, Hop};
use rzen_net::headers::{Header, Packet};
use rzen_net::routing::Announcement;

use crate::check::{self, Reference};
use crate::gen::Fabric;
use crate::stats::{self, ratio, Tracer};
use crate::workloads::{metric, Metric};

/// Every per-layer metric, in report order. A workload whose inputs do
/// not exercise a layer reports it as 0 with the note "not exercised".
pub const LAYER_METRICS: [(&str, &str); 36] = [
    ("loop.decode_ns_per_req", "ns"),
    ("loop.writebuf_ns_per_resp", "ns"),
    ("loop.wakeups_per_req", "count"),
    ("serve.parse_ns_per_req", "ns"),
    ("serve.encode_ns_per_resp", "ns"),
    ("serve.outside_engine_us_p50", "us"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.shed_ratio", "ratio"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.retained_hit_ratio", "ratio"),
    ("engine.fingerprint_us", "us"),
    ("engine.hit_us_p50", "us"),
    ("engine.miss_ms_p50", "ms"),
    ("engine.miss_ms_p90", "ms"),
    ("engine.bdd_win_ratio", "ratio"),
    ("engine.batch_query_ms_p50", "ms"),
    ("delta.apply_us", "us"),
    ("delta.fingerprint_us", "us"),
    ("delta.evicted_ratio", "ratio"),
    ("net.spec_parse_ms", "ms"),
    ("net.paths_us", "us"),
    ("net.paths_per_query", "count"),
    ("core.build_us", "us"),
    ("core.bitblast_us", "us"),
    ("core.cnf_vars_per_query", "count"),
    ("core.cnf_clauses_per_query", "count"),
    ("core.stateset_ms", "ms"),
    ("core.witness_replay_us", "us"),
    ("core.session_bitblast_hits_per_query", "count"),
    ("sat.search_ms", "ms"),
    ("sat.conflicts_per_query", "count"),
    ("sat.propagations_per_query", "count"),
    ("sat.carried_per_query", "count"),
    ("bdd.solve_ms", "ms"),
    ("bdd.nodes_per_query", "count"),
    ("bdd.opcache_hit_ratio", "ratio"),
];

/// Queries replayed through the solve path per traced run.
const SOLVE_SAMPLE: usize = 6;
/// `hsa` pairs replayed through the state-set layer.
const HSA_SAMPLE: usize = 2;
/// Minimum wall time of one bulk micro-measurement.
const MICRO_MIN: Duration = Duration::from_millis(20);

/// What the replay draws from.
pub struct ReplayInputs<'a> {
    pub seed: u64,
    pub fabric: Option<&'a Fabric>,
    /// The recorded request stream (wire lines).
    pub requests: Vec<&'a str>,
    /// The recorded response stream (wire lines).
    pub responses: Vec<&'a str>,
    pub reference: Option<&'a Reference>,
    pub hsa_pairs: Vec<((usize, u8), (usize, u8))>,
    pub delta_ops: Vec<String>,
    /// The batch workload's queries.
    pub batch: &'a [Query],
    /// Engine results to encode and to read batch latencies from.
    pub batch_results: &'a [QueryResult],
}

/// Time `f` (one pass over `items` inputs) in a span, repeating until
/// `MICRO_MIN` has passed; returns nanoseconds per item.
fn bulk(
    tr: &mut Tracer,
    parent: usize,
    name: &'static str,
    items: usize,
    mut f: impl FnMut(),
) -> f64 {
    let id = tr.begin(name, Some(parent), 0);
    let t0 = Instant::now();
    let mut reps = 0usize;
    while reps < 3 || t0.elapsed() < MICRO_MIN {
        f();
        reps += 1;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    tr.end(id);
    ratio(ns, (reps * items) as f64)
}

/// Replay the inputs and return the per-layer metrics measured here.
pub fn replay(tr: &mut Tracer, inp: &ReplayInputs) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(inp.seed ^ 0x7265_706c_6179);
    let root = tr.begin("replay", None, 0);
    let micro = tr.begin("replay.micro", Some(root), 0);

    // loop: decode the recorded request stream, cut at seeded chunk sizes.
    if !inp.requests.is_empty() {
        let stream: Vec<u8> = inp
            .requests
            .iter()
            .take(20_000)
            .flat_map(|l| l.bytes())
            .collect();
        let lines = inp.requests.len().min(20_000);
        let mut cuts = Vec::new();
        let mut at = 0;
        while at < stream.len() {
            let n = rng.gen_range(1..=512usize).min(stream.len() - at);
            cuts.push((at, at + n));
            at += n;
        }
        let ns = bulk(tr, micro, "loop.decode", lines, || {
            let mut dec = rzen_loop::framing::LineDecoder::new();
            let mut got = 0;
            for &(a, b) in &cuts {
                dec.feed(&stream[a..b]);
                while let Ok(Some(line)) = dec.next_line() {
                    std::hint::black_box(line);
                    got += 1;
                }
            }
            assert_eq!(got, lines, "decoder lost lines");
        });
        out.push(metric(
            "loop.decode_ns_per_req",
            "ns",
            ns,
            format!("{lines} lines in {} chunks", cuts.len()),
        ));
        let ns = bulk(tr, micro, "serve.parse", lines, || {
            for l in inp.requests.iter().take(lines) {
                std::hint::black_box(rzen_serve::proto::parse_request(l.trim_end(), false).is_ok());
            }
        });
        out.push(metric(
            "serve.parse_ns_per_req",
            "ns",
            ns,
            format!("{lines} lines"),
        ));
    }

    // serve: encode engine results the way the server does.
    let encoded: Vec<String> = inp
        .batch_results
        .iter()
        .enumerate()
        .map(|(i, r)| rzen_serve::proto::verdict_response(None, i as u64 + 1, r.kind, r, false))
        .collect();
    if !encoded.is_empty() {
        let n = inp.batch_results.len();
        let ns = bulk(tr, micro, "serve.encode", n, || {
            for (i, r) in inp.batch_results.iter().enumerate() {
                std::hint::black_box(rzen_serve::proto::verdict_response(
                    None,
                    i as u64 + 1,
                    r.kind,
                    r,
                    false,
                ));
            }
        });
        out.push(metric(
            "serve.encode_ns_per_resp",
            "ns",
            ns,
            format!("{n} results"),
        ));
        out.push(metric(
            "engine.batch_query_ms_p50",
            "ms",
            stats::percentile(
                &stats::sorted(
                    inp.batch_results
                        .iter()
                        .map(|r| r.latency.as_secs_f64() * 1e3)
                        .collect(),
                ),
                50.0,
            ),
            format!("QueryResult.latency, n={n}"),
        ));
    }

    // loop: queue responses into a WriteBuf, flushing at seeded intervals.
    let resps: Vec<&str> = if inp.responses.is_empty() {
        encoded.iter().map(String::as_str).collect()
    } else {
        inp.responses.iter().take(20_000).copied().collect()
    };
    if !resps.is_empty() {
        let every: Vec<bool> = (0..resps.len()).map(|_| rng.gen_range(0..8) == 0).collect();
        let ns = bulk(tr, micro, "loop.writebuf", resps.len(), || {
            let mut wb = rzen_loop::framing::WriteBuf::new();
            let mut sink = std::io::sink();
            for (r, flush) in resps.iter().zip(&every) {
                wb.queue(r.as_bytes());
                if *flush {
                    wb.flush(&mut sink).expect("sink");
                }
            }
            wb.flush(&mut sink).expect("sink");
        });
        out.push(metric(
            "loop.writebuf_ns_per_resp",
            "ns",
            ns,
            format!("{} responses", resps.len()),
        ));
    }

    // engine: the result-cache key of every distinct query.
    let queries: Vec<&Query> = match inp.reference {
        Some(r) => r.queries.iter().flatten().collect(),
        None => inp.batch.iter().collect(),
    };
    if !queries.is_empty() {
        let ns = bulk(tr, micro, "engine.fingerprint", queries.len(), || {
            for q in &queries {
                std::hint::black_box(q.fingerprint());
            }
        });
        out.push(metric(
            "engine.fingerprint_us",
            "us",
            ns / 1e3,
            format!("{} queries", queries.len()),
        ));
    }

    if let Some(f) = inp.fabric {
        // net: parse the generated spec.
        let ns = bulk(tr, micro, "net.spec_parse", 1, || {
            std::hint::black_box(rzen_net::spec::parse(&f.text).expect("spec"));
        });
        out.push(metric(
            "net.spec_parse_ms",
            "ms",
            ns / 1e6,
            format!("{} bytes", f.text.len()),
        ));
        // delta: the model identity the server computes on every load.
        let ns = bulk(tr, micro, "delta.fingerprint", 1, || {
            std::hint::black_box(rzen_delta::composite_fingerprint(&f.spec.net));
        });
        out.push(metric(
            "delta.fingerprint_us",
            "us",
            ns / 1e3,
            format!("{} devices", f.spec.net.devices.len()),
        ));
        // net: path enumeration for every distinct pair.
        let pairs: BTreeSet<_> = inp.hsa_pairs.iter().copied().collect();
        let mut count = 0usize;
        let ns = bulk(tr, micro, "net.paths", pairs.len(), || {
            count = 0;
            for &(s, d) in &pairs {
                count += std::hint::black_box(f.spec.net.paths(s.0, s.1, d.0, d.1)).len();
            }
        });
        out.push(metric(
            "net.paths_us",
            "us",
            ns / 1e3,
            format!("{} pairs", pairs.len()),
        ));
        out.push(metric(
            "net.paths_per_query",
            "count",
            ratio(count as f64, pairs.len() as f64),
            format!("{count} paths"),
        ));
        // delta: parse + apply of every posted op (the spec clone the
        // server makes first is not timed).
        if !inp.delta_ops.is_empty() {
            let id = tr.begin("delta.apply", Some(micro), 0);
            let mut spec = f.spec.clone();
            let mut spent = Duration::ZERO;
            let mut n = 0usize;
            let t0 = Instant::now();
            while n < 3 * inp.delta_ops.len() || t0.elapsed() < MICRO_MIN {
                for line in &inp.delta_ops {
                    let mut s = spec.clone();
                    let t = Instant::now();
                    let ops = rzen_delta::parse_ops(line).expect("posted op parses");
                    rzen_delta::apply_all(&mut s, &ops).expect("posted op applies");
                    spent += t.elapsed();
                    n += 1;
                    spec = s;
                }
            }
            tr.end(id);
            out.push(metric(
                "delta.apply_us",
                "us",
                spent.as_secs_f64() * 1e6 / n as f64,
                format!("{} ops, {n} applications", inp.delta_ops.len()),
            ));
        }
    }
    tr.end(micro);

    // core / sat / bdd: a seeded sample of queries through build,
    // bitblast, CDCL search and the BDD backend.
    let mut idx: Vec<usize> = (0..queries.len()).collect();
    crate::gen::shuffle(&mut idx, &mut rng);
    idx.truncate(SOLVE_SAMPLE);
    let (mut build, mut blast, mut search, mut bdd, mut replayed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // (vars, clauses) per CNF and (nodes, op-cache lookups, hits) per BDD.
    let (mut cnf, mut bdd_stats) = (Vec::new(), Vec::new());
    let witnesses: Vec<Option<&rzen_engine::Witness>> = match inp.reference {
        Some(r) => r.results.iter().map(|x| sat_witness(&x.verdict)).collect(),
        None => Vec::new(),
    };
    for (k, &i) in idx.iter().enumerate() {
        let q = queries[i];
        let parent = tr.begin("replay.query", Some(root), k as u64 + 1);
        rzen::reset_ctx();
        let paths = match q {
            Query::Reach { net, src, dst } | Query::Drops { net, src, dst } => {
                tr.span("net.paths", Some(parent), k as u64 + 1, || {
                    Some(net.paths(src.0, src.1, dst.0, dst.1))
                })
            }
            _ => None,
        };
        let t = Instant::now();
        let root_expr = tr.span("core.build", Some(parent), k as u64 + 1, || {
            build_query(q, paths)
        });
        build.push(t.elapsed().as_secs_f64() * 1e6);
        if let Some(e) = root_expr {
            let (b, s) = rzen::with_ctx(|ctx| {
                let mut alg = CnfAlg::new();
                let t = Instant::now();
                let lit = tr.span("core.bitblast", Some(parent), k as u64 + 1, || {
                    let mut c = BitCompiler::new(&mut alg);
                    *c.compile(ctx, e).as_bool()
                });
                let b = t.elapsed().as_secs_f64() * 1e6;
                let t = Instant::now();
                tr.span("sat.search", Some(parent), k as u64 + 1, || {
                    if alg.assert_true(lit) {
                        std::hint::black_box(alg.solver.solve_limited(&[]));
                    }
                });
                cnf.push((
                    alg.solver.num_vars() as f64,
                    alg.solver.num_clauses() as f64,
                ));
                (b, t.elapsed().as_secs_f64() * 1e3)
            });
            blast.push(b);
            search.push(s);
            let t = Instant::now();
            let st = tr.span("bdd.solve", Some(parent), k as u64 + 1, || {
                rzen::with_ctx(|ctx| {
                    rzen::backend::bdd::solve_budgeted(ctx, e, true, &Budget::unlimited()).1
                })
            });
            bdd_stats.push((
                st.nodes as f64,
                st.cache_lookups as f64,
                st.cache_hits as f64,
            ));
            bdd.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let witness = witnesses.get(i).copied().flatten().or_else(|| {
            inp.batch_results
                .get(i)
                .and_then(|r| sat_witness(&r.verdict))
                .filter(|_| inp.reference.is_none())
        });
        if let Some(w) = witness {
            rzen::reset_ctx();
            let t = Instant::now();
            let ok = tr.span("core.witness_replay", Some(parent), k as u64 + 1, || {
                q.check_witness(w)
            });
            replayed.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(ok, "a checked witness stopped replaying");
        }
        tr.end(parent);
    }
    rzen::reset_ctx();
    let n = idx.len();
    out.push(metric(
        "core.build_us",
        "us",
        stats::median(&build),
        format!("median of {n} sampled queries"),
    ));
    out.push(metric(
        "core.bitblast_us",
        "us",
        stats::median(&blast),
        format!("median of {}", blast.len()),
    ));
    out.push(metric(
        "sat.search_ms",
        "ms",
        stats::median(&search),
        format!("median of {}", search.len()),
    ));
    out.push(metric(
        "bdd.solve_ms",
        "ms",
        stats::median(&bdd),
        format!("median of {}", bdd.len()),
    ));
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let vars: Vec<f64> = cnf.iter().map(|c| c.0).collect();
    let clauses: Vec<f64> = cnf.iter().map(|c| c.1).collect();
    let nodes: Vec<f64> = bdd_stats.iter().map(|b| b.0).collect();
    let lookups: Vec<f64> = bdd_stats.iter().map(|b| b.1).collect();
    let hits: Vec<f64> = bdd_stats.iter().map(|b| b.2).collect();
    let from = |n: usize| format!("replay over {n} sampled queries");
    out.push(metric(
        "core.cnf_vars_per_query",
        "count",
        ratio(sum(&vars), vars.len() as f64),
        from(vars.len()),
    ));
    out.push(metric(
        "core.cnf_clauses_per_query",
        "count",
        ratio(sum(&clauses), clauses.len() as f64),
        from(clauses.len()),
    ));
    out.push(metric(
        "bdd.nodes_per_query",
        "count",
        ratio(sum(&nodes), nodes.len() as f64),
        from(nodes.len()),
    ));
    out.push(metric(
        "bdd.opcache_hit_ratio",
        "ratio",
        ratio(sum(&hits), sum(&lookups)),
        from(nodes.len()),
    ));
    out.push(metric(
        "core.witness_replay_us",
        "us",
        stats::median(&replayed),
        format!("median of {} Sat witnesses", replayed.len()),
    ));

    // core: exact reachable sets for a seeded sample of pairs.
    if let Some(f) = inp.fabric {
        let mut pairs = inp.hsa_pairs.clone();
        crate::gen::shuffle(&mut pairs, &mut rng);
        pairs.truncate(HSA_SAMPLE);
        let mut ms = Vec::new();
        for (k, &(s, d)) in pairs.iter().enumerate() {
            let t = Instant::now();
            tr.span("core.stateset", Some(root), k as u64 + 1, || {
                check::hsa_answer(&f.spec, s, d)
            });
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        out.push(metric(
            "core.stateset_ms",
            "ms",
            stats::median(&ms),
            format!("median of {} pairs", ms.len()),
        ));
    }
    tr.end(root);
    out
}

fn sat_witness(v: &Verdict) -> Option<&rzen_engine::Witness> {
    match v {
        Verdict::Sat(w) => Some(w),
        _ => None,
    }
}

/// The query's model applied to a symbolic input, as the engine builds it
/// (`None` for a reach/drops pair with no path: no solve happens).
fn build_query(q: &Query, paths: Option<Vec<Vec<Hop>>>) -> Option<ExprId> {
    match q {
        Query::Reach { .. } | Query::Drops { .. } => {
            let paths = paths.filter(|p| !p.is_empty())?;
            let reach = matches!(q, Query::Reach { .. });
            let f = ZenFunction::new(move |p: Zen<Packet>| {
                if reach {
                    paths.iter().fold(Zen::bool(false), |acc, path| {
                        acc.or(forward_along(path, p).is_some())
                    })
                } else {
                    paths.iter().fold(Zen::bool(true), |acc, path| {
                        acc.and(forward_along(path, p).is_none())
                    })
                }
            });
            Some(f.apply(Zen::<Packet>::symbolic(4)).expr_id())
        }
        Query::AclFind { acl, target_line } => {
            let acl = acl.clone();
            let f = ZenFunction::new(move |h: Zen<Header>| acl.matched_line(h));
            Some(
                f.apply(Zen::<Header>::symbolic(4))
                    .eq(Zen::val(*target_line))
                    .expr_id(),
            )
        }
        Query::RouteMapFind {
            map,
            target_clause,
            list_bound,
        } => {
            let map = map.clone();
            let f = ZenFunction::new(move |a: Zen<Announcement>| map.matched_clause(a));
            Some(
                f.apply(Zen::<Announcement>::symbolic(*list_bound))
                    .eq(Zen::val(*target_clause))
                    .expr_id(),
            )
        }
    }
}
