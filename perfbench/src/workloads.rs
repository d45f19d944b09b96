//! The four workloads. Each one generates its inputs from the seed,
//! computes the correctness reference outside the timed window, measures
//! for the requested time, and checks every verdict it was given.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rzen_engine::{Engine, EngineConfig, QueryBackend, QueryResult};

use crate::check::{self, Checker, Reference};
use crate::client::{drive, Response, Sample};
use crate::gen::{self, Fabric, Request};
use crate::layers::{self, ReplayInputs};
use crate::server::{self, Server};
use crate::stats::{self, beyond, percentile, ratio, sorted, Tracer};

/// Fabric sizes (spines, leaves) per workload.
pub const HOT_FABRIC: (usize, usize) = (2, 8);
pub const COLD_FABRIC: (usize, usize) = (2, 5);
pub const CHURN_FABRIC: (usize, usize) = (2, 4);
/// Segment length of the time-based `hot-hits` phase.
pub const WINDOW: Duration = Duration::from_millis(500);
/// Requests each `hot-hits` connection keeps in flight.
pub const HOT_DEPTH: usize = 8;
/// Churn rounds per `delta-churn` episode (an even number, so an episode
/// ends on the fabric it started from).
pub const CHURN_ROUNDS: usize = 4;
/// Host steal (share of the host's CPU time) up to which a segment counts
/// as quiet; see [`quiet`].
pub const QUIET_STEAL: f64 = 0.02;
/// Server spawns per run whose median is `setup_s`.
pub const SETUP_SPAWNS: usize = 21;
/// ACL and route-map families in one `acl-batch` batch.
pub const ACL_FAMILIES: usize = 24;
pub const MAP_FAMILIES: usize = 16;

/// Server counters diffed across traced phases.
pub const COUNTERS: [&str; 11] = [
    "loop.wakeups",
    "serve.coalesced",
    "serve.overloaded",
    "engine.cache.hits",
    "engine.cache.misses",
    "session.bitblast.hits",
    "session.sat.carried",
    "sat.conflicts",
    "sat.propagations",
    "engine.cache.delta_evicted",
    "engine.cache.delta_retained",
];

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
    /// Engine jobs for the in-process engines: the host's parallelism.
    pub jobs: usize,
    /// Client connections: two, capped at the host's parallelism.
    pub conns: usize,
    pub epoch: Instant,
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub note: String,
}

pub fn metric(name: &str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        note: note.into(),
    }
}

/// What a workload run produced.
pub struct Report {
    /// The gated end-to-end metrics (the JSON result with `--trace 0`).
    pub e2e: Vec<Metric>,
    /// End-to-end figures printed beside them but not gated.
    pub info: Vec<Metric>,
    /// Per-layer metrics (`--trace 1`).
    pub layers: Vec<Metric>,
    /// Spans of the traced half (`--trace 1`).
    pub tracer: Option<Tracer>,
    /// End-to-end metrics of the untraced half (`--trace 1`), for the
    /// tracing overhead.
    pub untraced: Vec<Metric>,
    pub checker: Checker,
    pub attempted: u64,
}

impl Report {
    fn new() -> Report {
        Report {
            e2e: Vec::new(),
            info: Vec::new(),
            layers: Vec::new(),
            tracer: None,
            untraced: Vec::new(),
            checker: Checker::default(),
            attempted: 0,
        }
    }
}

/// A model the server answered against: its request list and the
/// reference answers on it. `Sample::state` indexes these.
struct State {
    reqs: Vec<Request>,
    reference: Reference,
}

/// One measured segment of a phase: a time window, a fill, a churn
/// episode or a batch.
#[derive(Clone, Copy, Default)]
struct Segment {
    requests: usize,
    /// Timed wall time, s.
    wall: f64,
    /// CPU time of the program under test, s.
    cpu: f64,
    /// Host CPU ticks the hypervisor stole, and all host CPU ticks, while
    /// the segment ran.
    stolen: u64,
    ticks: u64,
}

impl Segment {
    /// Count `requests` answered in `wall` s with `cpu` s of CPU, the host
    /// clock having read `since` when they started.
    fn add(&mut self, requests: usize, wall: f64, cpu: f64, since: (u64, u64)) {
        let now = host_clock();
        self.requests += requests;
        self.wall += wall;
        self.cpu += cpu;
        self.stolen += now.0.saturating_sub(since.0);
        self.ticks += now.1.saturating_sub(since.1);
    }

    /// Share of the host's CPU time the hypervisor stole.
    fn steal(&self) -> f64 {
        ratio(self.stolen as f64, self.ticks as f64)
    }
}

/// The host's (stolen, total) CPU ticks now.
fn host_clock() -> (u64, u64) {
    let (_, stolen, total) = server::host_ticks();
    (stolen, total)
}

/// What one measured phase of a serve workload saw.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    /// Timed wall time so far.
    wall: Duration,
    /// The phase cut into segments; the end-to-end metrics come from the
    /// quiet ones (see [`quiet`]).
    segments: Vec<Segment>,
    /// Client latencies (us) of the requests of each segment.
    lat_segments: Vec<Vec<f64>>,
    /// What the segments are (plural), for the report.
    segment: &'static str,
    rss_mb: Vec<f64>,
    setups: Vec<f64>,
    /// Summed counter deltas over the phase (traced runs).
    counters: HashMap<String, f64>,
    delta_ack_ms: Vec<f64>,
    reverify_s: Vec<f64>,
    /// Churn cone of each round, beside `reverify_s`.
    cones: Vec<&'static str>,
    /// Untimed warm-up of each churn episode: the cold fill the
    /// re-verifications compare against.
    cold_fill_s: Vec<f64>,
    evicted: f64,
    retained: f64,
    /// (posted, acknowledged) of each delta, for spans.
    deltas: Vec<(Instant, Instant)>,
}

fn add_counters(
    acc: &mut HashMap<String, f64>,
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
) {
    for c in COUNTERS {
        *acc.entry(c.to_string()).or_default() += server::delta(before, after, c);
    }
}

fn latency_us(s: &Sample) -> f64 {
    s.latency.as_secs_f64() * 1e6
}

/// The seed of the `k`-th fabric (or batch) of a run.
fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x1_0000_0001).wrapping_add(k as u64)
}

fn write_spec(ctx: &Ctx, name: &str, k: usize, fabric: &Fabric) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| e.to_string())?;
    let path = ctx.out_dir.join(format!("{name}-seed{}-{k}.net", ctx.seed));
    std::fs::write(&path, &fabric.text).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Answer every request once over `conns` closed-loop connections with
/// one request outstanding each.
fn answer_all(
    addr: std::net::SocketAddr,
    reqs: &[Request],
    conns: usize,
    state: usize,
) -> Result<Vec<Sample>, String> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    drive(addr, reqs, 1, state, || {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        (i < reqs.len()).then_some(i)
                    })
                })
            })
            .collect();
        let mut out = Vec::new();
        for w in workers {
            out.extend(
                w.join()
                    .expect("client thread")
                    .map_err(|e| e.to_string())?,
            );
        }
        Ok(out)
    })
}

/// Spawn-to-healthy times of `n` throwaway servers, seconds.
fn setup_samples(ctx: &Ctx, spec: &Path, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| Server::spawn(&ctx.server_bin, spec).map(|s| s.setup.as_secs_f64()))
        .collect()
}

/// The segments the gated figures come from, in time order: every segment
/// during which the hypervisor stole at most [`QUIET_STEAL`] of the host's
/// CPU time or, where fewer than half did, the quietest half of them (and
/// any tied with its noisiest). On a shared host other tenants take the
/// CPUs away in bursts of a few seconds, which slow every thread of the run
/// at once; the program under test has no say in them, so the gated
/// figures leave them out.
fn quiet(segments: &[Segment]) -> Vec<usize> {
    let mut steal: Vec<f64> = segments.iter().map(Segment::steal).collect();
    steal.sort_by(f64::total_cmp);
    let Some(&mid) = steal.get(segments.len().div_ceil(2).saturating_sub(1)) else {
        return Vec::new();
    };
    let cut = mid.max(QUIET_STEAL);
    (0..segments.len())
        .filter(|&i| segments[i].steal() <= cut)
        .collect()
}

/// The end-to-end metrics every workload reports, from one phase, over
/// its quiet segments (see [`quiet`]). Throughput and CPU per query are
/// medians over those segments; latency percentiles pool their samples.
fn summarize(
    lat_segments: &[Vec<f64>],
    segments: &[Segment],
    segment: &str,
    setups: &[f64],
    rss_mb: &[f64],
) -> (Vec<Metric>, Vec<Metric>) {
    let keep = quiet(segments);
    let k = keep.len();
    let max_steal = keep
        .iter()
        .map(|&i| segments[i].steal())
        .fold(0.0, f64::max);
    let of = format!(
        "the {k} of {} {segment} with the least host steal (at most {:.1}% each)",
        segments.len(),
        max_steal * 100.0
    );
    let lat = sorted(
        keep.iter()
            .flat_map(|&i| lat_segments[i].iter().copied())
            .collect(),
    );
    let n = lat.len();
    let pct = |p: f64| {
        let b = beyond(n, p);
        let floor = if b >= 10 {
            ""
        } else {
            ", below the 10-sample floor"
        };
        (
            percentile(&lat, p),
            format!("{of}, n={n}, {b} beyond{floor}"),
        )
    };
    let (p50, n50) = pct(50.0);
    let (p90, n90) = pct(90.0);
    let (p99, n99) = pct(99.0);
    let p99 = if beyond(n, 99.0) >= 10 { p99 } else { f64::NAN };
    let qps: Vec<f64> = keep
        .iter()
        .map(|&i| ratio(segments[i].requests as f64, segments[i].wall))
        .collect();
    let cpu: Vec<f64> = keep
        .iter()
        .map(|&i| ratio(segments[i].cpu * 1e3, segments[i].requests as f64))
        .collect();
    let all = segments.iter().fold(Segment::default(), |mut a, s| {
        a.requests += s.requests;
        a.wall += s.wall;
        a.cpu += s.cpu;
        a
    });
    let e2e = vec![
        metric(
            "throughput_qps",
            "1/s",
            stats::median(&qps),
            format!(
                "median of {of}; {} requests in {:.2}s in all",
                all.requests, all.wall
            ),
        ),
        metric("latency_p50_us", "us", p50, n50),
        metric("latency_p90_us", "us", p90, n90),
        metric(
            "setup_s",
            "s",
            stats::median(setups),
            format!("median of {}", setups.len()),
        ),
        metric(
            "cpu_ms_per_query",
            "ms",
            stats::median(&cpu),
            format!("median of {of}; {:.0} ms CPU in all", all.cpu * 1e3),
        ),
        metric(
            "peak_rss_mb",
            "MiB",
            stats::median(rss_mb),
            format!("VmHWM, median of {}", rss_mb.len()),
        ),
    ];
    (e2e, vec![metric("latency_p99_us", "us", p99, n99)])
}

/// Check every sample and summarize the phase. Returns the parsed
/// responses alongside, for the per-layer metrics.
fn finish_phase(
    phase: &Phase,
    states: &[State],
    checker: &mut Checker,
) -> (Vec<Metric>, Vec<Metric>, Vec<Response>) {
    let parsed: Vec<Response> = phase
        .samples
        .iter()
        .map(|s| checker.check(s, &states[s.state].reqs, &states[s.state].reference))
        .collect();
    let (e2e, mut info) = summarize(
        &phase.lat_segments,
        &phase.segments,
        phase.segment,
        &phase.setups,
        &phase.rss_mb,
    );
    if !phase.delta_ack_ms.is_empty() {
        info.push(metric(
            "delta_ack_ms",
            "ms",
            stats::median(&phase.delta_ack_ms),
            format!("median of {}", phase.delta_ack_ms.len()),
        ));
        let by_cone = |cone: &str| {
            let v: Vec<f64> = phase
                .reverify_s
                .iter()
                .zip(&phase.cones)
                .filter(|(_, c)| **c == cone)
                .map(|(r, _)| *r)
                .collect();
            format!("{cone} {:.3}s over {}", stats::median(&v), v.len())
        };
        info.push(metric(
            "reverify_s",
            "s",
            stats::median(&phase.reverify_s),
            format!(
                "median of {} rounds; {}, {}",
                phase.reverify_s.len(),
                by_cone("small-cone"),
                by_cone("large-cone")
            ),
        ));
        info.push(metric(
            "cold_fill_s",
            "s",
            stats::median(&phase.cold_fill_s),
            format!(
                "untimed warm-up of the same query set, median of {} episodes",
                phase.cold_fill_s.len()
            ),
        ));
    }
    (e2e, info, parsed)
}

/// Per-layer metrics read from server (or in-process) counter deltas,
/// per solved query. CNF sizes and BDD statistics come from the replay
/// instead: the sessions path does not feed `smt.*` or `bdd.*` counters.
fn counter_layers(c: &dyn Fn(&str) -> f64, solved: f64) -> Vec<Metric> {
    let per = |name: &str, counter: &str| {
        metric(
            name,
            "count",
            ratio(c(counter), solved),
            format!("{} {counter} over {solved} solved queries", c(counter)),
        )
    };
    vec![
        per(
            "core.session_bitblast_hits_per_query",
            "session.bitblast.hits",
        ),
        per("sat.conflicts_per_query", "sat.conflicts"),
        per("sat.propagations_per_query", "sat.propagations"),
        per("sat.carried_per_query", "session.sat.carried"),
    ]
}

/// Per-layer metrics measured from a traced serve phase: counter deltas
/// and response fields.
fn served_layers(phase: &Phase, parsed: &[Response], states: &[State]) -> Vec<Metric> {
    let c = |k: &str| phase.counters.get(k).copied().unwrap_or(0.0);
    let answered = parsed.len() as f64;
    let engine: Vec<(&Sample, &Response)> = phase
        .samples
        .iter()
        .zip(parsed)
        .filter(|(s, r)| states[s.state].reqs[s.req].kind != gen::Kind::Hsa && r.verdict.is_some())
        .collect();
    let hits: Vec<f64> = engine
        .iter()
        .filter(|(_, r)| r.cache_hit)
        .filter_map(|(_, r)| r.latency_us)
        .collect();
    let misses = sorted(
        engine
            .iter()
            .filter(|(_, r)| !r.cache_hit && !r.coalesced)
            .filter_map(|(_, r)| r.latency_us.map(|u| u / 1e3))
            .collect(),
    );
    let outside: Vec<f64> = engine
        .iter()
        .filter_map(|(s, r)| r.latency_us.map(|u| s.latency.as_secs_f64() * 1e6 - u))
        .collect();
    let coalesced = parsed.iter().filter(|r| r.coalesced).count() as f64;
    let shed = parsed
        .iter()
        .filter(|r| r.error.as_deref() == Some("overloaded"))
        .count() as f64;
    let winners: Vec<&str> = engine
        .iter()
        .filter_map(|(_, r)| r.winner.as_deref())
        .collect();
    let counted = ratio(
        c("engine.cache.hits"),
        c("engine.cache.hits") + c("engine.cache.misses"),
    );
    let mut out = vec![
        metric(
            "loop.wakeups_per_req",
            "count",
            ratio(c("loop.wakeups"), answered),
            format!("{} wakeups", c("loop.wakeups")),
        ),
        metric(
            "serve.outside_engine_us_p50",
            "us",
            stats::median(&outside),
            format!("client latency minus latency_us, n={}", outside.len()),
        ),
        metric(
            "serve.coalesced_ratio",
            "ratio",
            ratio(coalesced, answered),
            format!(
                "{coalesced} of {answered}; counter says {}",
                c("serve.coalesced")
            ),
        ),
        metric(
            "serve.shed_ratio",
            "ratio",
            ratio(shed, answered),
            format!(
                "{shed} of {answered}; counter says {}",
                c("serve.overloaded")
            ),
        ),
        metric(
            "engine.cache_hit_ratio",
            "ratio",
            ratio(hits.len() as f64, engine.len() as f64),
            format!(
                "{} of {} engine answers; counters say {counted:.4}",
                hits.len(),
                engine.len()
            ),
        ),
        metric(
            "engine.hit_us_p50",
            "us",
            stats::median(&hits),
            format!("n={}", hits.len()),
        ),
        metric(
            "engine.miss_ms_p50",
            "ms",
            percentile(&misses, 50.0),
            format!("n={}", misses.len()),
        ),
        metric(
            "engine.miss_ms_p90",
            "ms",
            percentile(&misses, 90.0),
            format!("n={}", misses.len()),
        ),
        metric(
            "engine.bdd_win_ratio",
            "ratio",
            ratio(
                winners.iter().filter(|w| **w == "bdd").count() as f64,
                winners.len() as f64,
            ),
            format!("n={}", winners.len()),
        ),
        metric(
            "delta.evicted_ratio",
            "ratio",
            ratio(phase.evicted, phase.evicted + phase.retained),
            format!(
                "{} evicted, {} retained over {} deltas; counters say {} / {}",
                phase.evicted,
                phase.retained,
                phase.delta_ack_ms.len(),
                c("engine.cache.delta_evicted"),
                c("engine.cache.delta_retained")
            ),
        ),
    ];
    if !phase.delta_ack_ms.is_empty() {
        out.push(metric(
            "engine.retained_hit_ratio",
            "ratio",
            ratio(hits.len() as f64, phase.retained),
            format!(
                "{} re-verify hits of {} entries the deltas retained",
                hits.len(),
                phase.retained
            ),
        ));
    }
    out.extend(counter_layers(&c, c("engine.cache.misses")));
    out
}

/// Traced runs split the time: the first half untraced, the second
/// half traced, so the difference is the tracing overhead.
fn halves(ctx: &Ctx) -> Vec<(bool, f64)> {
    if ctx.trace {
        vec![(false, ctx.seconds / 2.0), (true, ctx.seconds / 2.0)]
    } else {
        vec![(false, ctx.seconds)]
    }
}

/// Assemble the report of a serve workload from its (untraced[, traced])
/// phases. The layer replay draws on `fabric`, the model of `states[at]`.
#[allow(clippy::too_many_arguments)]
fn serve_report(
    ctx: &Ctx,
    phases: Vec<(bool, Phase)>,
    warm: &[Sample],
    states: &[State],
    fabric: &Fabric,
    at: usize,
    delta_ops: &[String],
    mut checker: Checker,
) -> Report {
    let mut report = Report::new();
    for s in warm {
        checker.check(s, &states[s.state].reqs, &states[s.state].reference);
    }
    report.attempted = warm.len() as u64;
    for (traced, phase) in phases {
        report.attempted += (phase.samples.len() + phase.delta_ack_ms.len()) as u64;
        let (e2e, info, parsed) = finish_phase(&phase, states, &mut checker);
        if !traced && ctx.trace {
            report.untraced = e2e;
            continue;
        }
        report.e2e = e2e;
        report.info = info;
        if traced {
            let mut tr = Tracer::new(ctx.epoch);
            let start = phase
                .samples
                .iter()
                .map(|s| tr.ns_at(s.sent))
                .min()
                .unwrap_or(0);
            let root = tr.begin("phase.traced", None, 0);
            tr.spans[root].start_ns = start;
            for (s, r) in phase.samples.iter().zip(&parsed) {
                let start_ns = tr.ns_at(s.sent);
                tr.spans.push(stats::Span {
                    name: "client.request",
                    start_ns,
                    end_ns: start_ns + s.latency.as_nanos() as u64,
                    parent: Some(root),
                    req: r.req,
                });
            }
            for &(a, b) in &phase.deltas {
                let (start_ns, end_ns) = (tr.ns_at(a), tr.ns_at(b));
                tr.spans.push(stats::Span {
                    name: "client.delta_post",
                    start_ns,
                    end_ns,
                    parent: Some(root),
                    req: 0,
                });
            }
            tr.end(root);
            let mut layers = served_layers(&phase, &parsed, states);
            let st = &states[at];
            let inputs = ReplayInputs {
                seed: ctx.seed,
                fabric: Some(fabric),
                requests: phase
                    .samples
                    .iter()
                    .map(|s| states[s.state].reqs[s.req].line.as_str())
                    .collect(),
                responses: phase.samples.iter().map(|s| s.resp.as_str()).collect(),
                reference: Some(&st.reference),
                hsa_pairs: st.reqs.iter().map(|r| (r.src, r.dst)).collect(),
                delta_ops: delta_ops.to_vec(),
                batch: &[],
                batch_results: &st.reference.results,
            };
            layers.extend(layers::replay(&mut tr, &inputs));
            report.layers = layers;
            report.tracer = Some(tr);
        }
    }
    report.checker = checker;
    report
}

/// `hot-hits`: a warmed 2x8 fabric, two connections with eight requests
/// pipelined each, seeded picks from the warmed set.
pub fn hot_hits(ctx: &Ctx) -> Result<Report, String> {
    let fabric = gen::fabric(HOT_FABRIC.0, HOT_FABRIC.1, ctx.seed);
    let spec_path = write_spec(ctx, "hot-hits", 0, &fabric)?;
    let reqs = gen::requests(&fabric.spec, ctx.seed, false);
    eprintln!("hot-hits: {} requests; computing the reference", reqs.len());
    let reference = check::fabric_reference(&fabric.spec, &reqs, ctx.jobs)?;
    let states = [State { reqs, reference }];
    let reqs = &states[0].reqs;
    let mut setups = setup_samples(ctx, &spec_path, SETUP_SPAWNS - 1)?;
    let server = Server::spawn(&ctx.server_bin, &spec_path)?;
    setups.push(server.setup.as_secs_f64());
    eprintln!("hot-hits: warming the cache");
    let warm = answer_all(server.addr, reqs, ctx.conns, 0)?;

    let mut phases = Vec::new();
    for (traced, secs) in halves(ctx) {
        let before = if traced {
            server.metrics()
        } else {
            HashMap::new()
        };
        let cpu0 = server.cpu();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(secs);
        // (time, server CPU, host clock) at each window boundary.
        let mut marks = vec![(t0, cpu0, host_clock())];
        let samples: Result<Vec<Vec<Sample>>, String> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..ctx.conns)
                .map(|c| {
                    let mut rng =
                        StdRng::seed_from_u64(ctx.seed ^ ((c as u64 + 1) << 32) ^ traced as u64);
                    s.spawn(move || {
                        drive(server.addr, reqs, HOT_DEPTH, 0, || {
                            (Instant::now() < deadline).then(|| rng.gen_range(0..reqs.len()))
                        })
                    })
                })
                .collect();
            loop {
                let next = marks.last().expect("t0 mark").0 + WINDOW;
                if next > deadline {
                    break;
                }
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
                marks.push((next, server.cpu(), host_clock()));
            }
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread").map_err(|e| e.to_string()))
                .collect()
        });
        let samples: Vec<Sample> = samples?.into_iter().flatten().collect();
        let lat_segments: Vec<Vec<f64>> = marks
            .windows(2)
            .map(|w| {
                samples
                    .iter()
                    .filter(|s| (w[0].0..w[1].0).contains(&(s.sent + s.latency)))
                    .map(latency_us)
                    .collect()
            })
            .collect();
        let segments: Vec<Segment> = marks
            .windows(2)
            .zip(&lat_segments)
            .map(|(w, lat)| Segment {
                requests: lat.len(),
                wall: (w[1].0 - w[0].0).as_secs_f64(),
                cpu: (w[1].1 - w[0].1).as_secs_f64(),
                stolen: w[1].2 .0.saturating_sub(w[0].2 .0),
                ticks: w[1].2 .1.saturating_sub(w[0].2 .1),
            })
            .collect();
        eprintln!(
            "hot-hits: per window qps / server CPU ms per query / host steal %: {}",
            segments
                .iter()
                .map(|g: &Segment| format!(
                    "{:.0}/{:.4}/{:.1}",
                    ratio(g.requests as f64, g.wall),
                    ratio(g.cpu * 1e3, g.requests as f64),
                    g.steal() * 100.0
                ))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let mut phase = Phase {
            samples,
            wall: t0.elapsed(),
            segments,
            lat_segments,
            segment: "half-second windows",
            rss_mb: vec![server.peak_rss_mb()],
            setups: setups.clone(),
            ..Phase::default()
        };
        if traced {
            add_counters(&mut phase.counters, &before, &server.metrics());
        }
        phases.push((traced, phase));
    }
    drop(server);
    Ok(serve_report(
        ctx,
        phases,
        &warm,
        &states,
        &fabric,
        0,
        &[],
        Checker::default(),
    ))
}

/// `cold-fabric`: every fill is a fresh seeded fabric on a fresh server,
/// so every request is one the server has never seen. Two connections,
/// one request outstanding each.
pub fn cold_fabric(ctx: &Ctx) -> Result<Report, String> {
    let mut states = Vec::new();
    let mut fabrics = Vec::new();
    let mut phases = Vec::new();
    for (traced, secs) in halves(ctx) {
        let mut phase = Phase {
            segment: "fills",
            ..Phase::default()
        };
        let mut spec_path = PathBuf::new();
        while phase.wall.as_secs_f64() < secs {
            let k = states.len();
            let seed = sub_seed(ctx.seed, k);
            let fabric = gen::fabric(COLD_FABRIC.0, COLD_FABRIC.1, seed);
            spec_path = write_spec(ctx, "cold-fabric", k, &fabric)?;
            let reqs = gen::requests(&fabric.spec, seed, true);
            eprintln!(
                "cold-fabric: fill {k}, {} requests; computing the reference",
                reqs.len()
            );
            let reference = check::fabric_reference(&fabric.spec, &reqs, ctx.jobs)?;
            let server = Server::spawn(&ctx.server_bin, &spec_path)?;
            phase.setups.push(server.setup.as_secs_f64());
            let before = if traced {
                server.metrics()
            } else {
                HashMap::new()
            };
            let (cpu0, host0) = (server.cpu(), host_clock());
            let t0 = Instant::now();
            let fill = answer_all(server.addr, &reqs, ctx.conns, k)?;
            let (wall, cpu) = (t0.elapsed(), server.cpu() - cpu0);
            let mut seg = Segment::default();
            seg.add(reqs.len(), wall.as_secs_f64(), cpu.as_secs_f64(), host0);
            eprintln!(
                "cold-fabric: fill {k}: {} requests in {:.3}s, server CPU {:.3}s, host steal {:.1}%",
                seg.requests,
                seg.wall,
                seg.cpu,
                seg.steal() * 100.0
            );
            phase
                .lat_segments
                .push(fill.iter().map(latency_us).collect());
            phase.samples.extend(fill);
            phase.wall += wall;
            phase.segments.push(seg);
            phase.rss_mb.push(server.peak_rss_mb());
            if traced {
                add_counters(&mut phase.counters, &before, &server.metrics());
            }
            states.push(State { reqs, reference });
            fabrics.push(fabric);
        }
        if phase.setups.len() < SETUP_SPAWNS {
            phase.setups.extend(setup_samples(
                ctx,
                &spec_path,
                SETUP_SPAWNS - phase.setups.len(),
            )?);
        }
        phases.push((traced, phase));
    }
    let at = states.len() - 1;
    Ok(serve_report(
        ctx,
        phases,
        &[],
        &states,
        &fabrics[at],
        at,
        &[],
        Checker::default(),
    ))
}

/// `delta-churn`: episodes on fresh seeded fabrics. After an untimed
/// warm-up, each round posts one seeded delta and re-answers the full
/// query set; rounds alternate between applying a churn step and
/// reverting it.
pub fn delta_churn(ctx: &Ctx) -> Result<Report, String> {
    let mut states: Vec<State> = Vec::new();
    let mut warm = Vec::new();
    let mut checker = Checker::default();
    let mut phases = Vec::new();
    let mut last = None;
    let mut episode = 0;
    for (traced, secs) in halves(ctx) {
        let mut phase = Phase {
            segment: "episodes",
            ..Phase::default()
        };
        let mut spec_path = PathBuf::new();
        while phase.wall.as_secs_f64() < secs {
            let seed = sub_seed(ctx.seed, episode);
            let fabric = gen::fabric(CHURN_FABRIC.0, CHURN_FABRIC.1, seed);
            spec_path = write_spec(ctx, "delta-churn", episode, &fabric)?;
            let reqs = gen::requests(&fabric.spec, seed, false);
            let steps = gen::churn(&fabric, seed, CHURN_ROUNDS / 2);
            eprintln!(
                "delta-churn: episode {episode}, {} requests per round",
                reqs.len()
            );
            let base = states.len();
            let reference = check::fabric_reference(&fabric.spec, &reqs, ctx.jobs)?;
            states.push(State { reqs, reference });
            let server = Server::spawn(&ctx.server_bin, &spec_path)?;
            phase.setups.push(server.setup.as_secs_f64());
            let t0 = Instant::now();
            warm.extend(answer_all(
                server.addr,
                &states[base].reqs,
                ctx.conns,
                base,
            )?);
            phase.cold_fill_s.push(t0.elapsed().as_secs_f64());
            let mut posted = Vec::new();
            let mut episode_seg = Segment::default();
            let mut episode_lat = Vec::new();
            for round in 0..CHURN_ROUNDS {
                let step = &steps[round / 2];
                let (line, state) = if round % 2 == 0 {
                    // The reference for the stepped model, outside the
                    // timed window.
                    let mut spec = fabric.spec.clone();
                    let ops =
                        rzen_delta::parse_ops(&step.apply).map_err(|e| format!("churn op: {e}"))?;
                    rzen_delta::apply_all(&mut spec, &ops).map_err(|e| format!("churn op: {e}"))?;
                    let reqs = states[base].reqs.clone();
                    let reference = check::fabric_reference(&spec, &reqs, ctx.jobs)?;
                    states.push(State { reqs, reference });
                    (&step.apply, states.len() - 1)
                } else {
                    (&step.revert, base)
                };
                let before = if traced {
                    server.metrics()
                } else {
                    HashMap::new()
                };
                let (cpu0, host0) = (server.cpu(), host_clock());
                let t0 = Instant::now();
                let ack = server::http(server.addr, "POST", "/delta", line);
                let acked = Instant::now();
                match &ack {
                    Ok((200, body)) => {
                        let v = rzen_obs::json::parse(body)
                            .map_err(|e| format!("delta response: {e}"))?;
                        let num = |k: &str| match v.get(k) {
                            Some(rzen_obs::json::Value::Num(x)) => *x,
                            _ => 0.0,
                        };
                        phase.evicted += num("evicted");
                        phase.retained += num("retained");
                    }
                    other => checker.fail(format!("POST /delta {line} -> {other:?}")),
                }
                let answers = answer_all(server.addr, &states[state].reqs, ctx.conns, state)?;
                let done = Instant::now();
                episode_lat.extend(answers.iter().map(latency_us));
                phase.samples.extend(answers);
                let cpu = server.cpu() - cpu0;
                phase.wall += done - t0;
                episode_seg.add(
                    states[state].reqs.len(),
                    (done - t0).as_secs_f64(),
                    cpu.as_secs_f64(),
                    host0,
                );
                phase.delta_ack_ms.push((acked - t0).as_secs_f64() * 1e3);
                phase.reverify_s.push((done - t0).as_secs_f64());
                phase.cones.push(step.cone);
                phase.deltas.push((t0, acked));
                if traced {
                    add_counters(&mut phase.counters, &before, &server.metrics());
                }
                posted.push(line.clone());
            }
            eprintln!(
                "delta-churn: episode {episode}: {} requests in {:.3}s, server CPU {:.3}s, \
                 host steal {:.1}%",
                episode_seg.requests,
                episode_seg.wall,
                episode_seg.cpu,
                episode_seg.steal() * 100.0
            );
            phase.segments.push(episode_seg);
            phase.lat_segments.push(episode_lat);
            phase.rss_mb.push(server.peak_rss_mb());
            last = Some((fabric, base, posted));
            episode += 1;
        }
        if phase.setups.len() < SETUP_SPAWNS {
            phase.setups.extend(setup_samples(
                ctx,
                &spec_path,
                SETUP_SPAWNS - phase.setups.len(),
            )?);
        }
        phases.push((traced, phase));
    }
    let (fabric, at, posted) = last.expect("at least one episode");
    Ok(serve_report(
        ctx, phases, &warm, &states, &fabric, at, &posted, checker,
    ))
}

/// `acl-batch`: the Fig. 10 query kinds through `Engine::run_batch`
/// (portfolio, sessions on, jobs = host parallelism), a fresh engine and
/// fresh seeded families per batch.
pub fn acl_batch(ctx: &Ctx) -> Result<Report, String> {
    let batch_queries =
        |b: usize| gen::acl_batch(sub_seed(ctx.seed, b), ACL_FAMILIES, MAP_FAMILIES);
    eprintln!("acl-batch: {} queries per batch", batch_queries(0).len());
    let cfg = EngineConfig {
        jobs: ctx.jobs,
        backend: QueryBackend::Portfolio,
        timeout: Some(Duration::from_secs(120)),
        cache: true,
        sessions: true,
    };
    // Engine::new takes well under a microsecond: time it in rounds of a
    // thousand and keep the median round's mean.
    let setups: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..1000 {
                drop(std::hint::black_box(Engine::new(cfg.clone())));
            }
            t.elapsed().as_secs_f64() / 1000.0
        })
        .collect();
    let mut checker = Checker::default();
    let mut report = Report::new();
    let mut batches = 0;
    for (traced, secs) in halves(ctx) {
        let mut phase = Phase {
            segment: "batches",
            setups: setups.clone(),
            ..Phase::default()
        };
        let mut results: Vec<QueryResult> = Vec::new();
        let mut first_batch = Vec::new();
        let mut tr = Tracer::new(ctx.epoch);
        let root = tr.begin("phase.traced", None, 0);
        while phase.wall.as_secs_f64() < secs {
            let queries = batch_queries(batches);
            batches += 1;
            let scrape =
                || server::parse_prometheus(&rzen_obs::metrics::registry().render_prometheus());
            let before = if traced { scrape() } else { HashMap::new() };
            server::reset_peak_rss();
            let (cpu0, host0) = (server::proc_cpu("/proc/self/stat"), host_clock());
            let span = tr.begin("engine.run_batch", Some(root), 0);
            let t0 = Instant::now();
            let batch = Engine::new(cfg.clone()).run_batch(&queries);
            let took = t0.elapsed();
            tr.end(span);
            let cpu = server::proc_cpu("/proc/self/stat") - cpu0;
            phase.rss_mb.push(server::proc_hwm_mb("/proc/self/status"));
            phase.wall += took;
            let mut seg = Segment::default();
            seg.add(queries.len(), took.as_secs_f64(), cpu.as_secs_f64(), host0);
            phase.segments.push(seg);
            if traced {
                add_counters(&mut phase.counters, &before, &scrape());
            }
            // The reference for this batch, outside the timed window.
            let span = tr.begin("check.reference", Some(root), 0);
            let reference = check::reference_engine(ctx.jobs).run_batch(&queries);
            tr.end(span);
            let want: Vec<&'static str> = queries
                .iter()
                .zip(&reference.results)
                .map(|(q, r)| check::decisive(q, &r.verdict))
                .collect::<Result<_, _>>()?;
            checker.check_batch(&queries, &batch.results, &want);
            report.attempted += queries.len() as u64;
            phase.lat_segments.push(
                batch
                    .results
                    .iter()
                    .map(|r| r.latency.as_secs_f64() * 1e6)
                    .collect(),
            );
            if traced {
                if first_batch.is_empty() {
                    first_batch = queries;
                }
                results.extend(batch.results);
            }
        }
        tr.end(root);
        let (e2e, info) = summarize(
            &phase.lat_segments,
            &phase.segments,
            phase.segment,
            &phase.setups,
            &phase.rss_mb,
        );
        if !traced && ctx.trace {
            report.untraced = e2e;
            continue;
        }
        report.e2e = e2e;
        report.info = info;
        if traced {
            let c = |k: &str| phase.counters.get(k).copied().unwrap_or(0.0);
            let solved = results.iter().filter(|r| !r.cache_hit).count() as f64;
            let miss_ms = sorted(
                results
                    .iter()
                    .filter(|r| !r.cache_hit)
                    .map(|r| r.latency.as_secs_f64() * 1e3)
                    .collect(),
            );
            let with_winner = results.iter().filter(|r| r.winner.is_some()).count() as f64;
            let bdd_wins = results
                .iter()
                .filter(|r| r.winner == Some(rzen::Backend::Bdd))
                .count() as f64;
            let hits = results.iter().filter(|r| r.cache_hit).count() as f64;
            let mut layers = vec![
                metric(
                    "engine.cache_hit_ratio",
                    "ratio",
                    ratio(hits, results.len() as f64),
                    format!("n={}", results.len()),
                ),
                metric(
                    "engine.bdd_win_ratio",
                    "ratio",
                    ratio(bdd_wins, with_winner),
                    format!("n={with_winner}"),
                ),
                metric(
                    "engine.miss_ms_p50",
                    "ms",
                    percentile(&miss_ms, 50.0),
                    format!("QueryResult.latency, n={}", miss_ms.len()),
                ),
                metric(
                    "engine.miss_ms_p90",
                    "ms",
                    percentile(&miss_ms, 90.0),
                    format!("QueryResult.latency, n={}", miss_ms.len()),
                ),
            ];
            layers.extend(counter_layers(&c, solved));
            let inputs = ReplayInputs {
                seed: ctx.seed,
                fabric: None,
                requests: Vec::new(),
                responses: Vec::new(),
                reference: None,
                hsa_pairs: Vec::new(),
                delta_ops: Vec::new(),
                batch: &first_batch,
                batch_results: &results,
            };
            layers.extend(layers::replay(&mut tr, &inputs));
            report.layers = layers;
            report.tracer = Some(tr);
        }
    }
    report.checker = checker;
    Ok(report)
}
