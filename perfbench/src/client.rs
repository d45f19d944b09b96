//! The load generator: closed-loop NDJSON connections to the server.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rzen_obs::json::{parse, Value};

use crate::gen::Request;

/// One answered request as the client saw it. The response line is kept
/// raw and parsed after the timed window.
pub struct Sample {
    /// Index into the request list.
    pub req: usize,
    /// Which model the request was answered against (delta rounds).
    pub state: usize,
    pub sent: Instant,
    pub latency: Duration,
    pub resp: String,
}

/// Drive one connection: keep up to `depth` requests outstanding, taking
/// the next request index from `next` until it returns `None`, then drain.
/// Responses arrive in request order per connection.
pub fn drive(
    addr: SocketAddr,
    reqs: &[Request],
    depth: usize,
    state: usize,
    mut next: impl FnMut() -> Option<usize>,
) -> std::io::Result<Vec<Sample>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(depth);
    let mut out = Vec::new();
    let mut exhausted = false;
    loop {
        while !exhausted && inflight.len() < depth {
            match next() {
                Some(i) => {
                    let sent = Instant::now();
                    writer.write_all(reqs[i].line.as_bytes())?;
                    inflight.push_back((i, sent));
                }
                None => exhausted = true,
            }
        }
        let Some((req, sent)) = inflight.pop_front() else {
            break;
        };
        let mut resp = String::new();
        if reader.read_line(&mut resp)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        out.push(Sample {
            req,
            state,
            sent,
            latency: sent.elapsed(),
            resp,
        });
    }
    Ok(out)
}

/// The fields of one response line the benchmark checks and measures.
#[derive(Default, Debug)]
pub struct Response {
    pub verdict: Option<String>,
    pub witness: Option<String>,
    pub error: Option<String>,
    pub winner: Option<String>,
    pub cache_hit: bool,
    pub coalesced: bool,
    pub latency_us: Option<f64>,
    pub req: u64,
    /// `hsa` answers.
    pub reachable: Option<bool>,
    pub log2_count: Option<f64>,
}

pub fn parse_response(line: &str) -> Response {
    let Ok(v) = parse(line.trim()) else {
        return Response {
            error: Some(format!("unparseable response {line:?}")),
            ..Response::default()
        };
    };
    let s = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
    let b = |k: &str| v.get(k).and_then(Value::as_bool);
    let n = |k: &str| match v.get(k) {
        Some(Value::Num(x)) => Some(*x),
        _ => None,
    };
    Response {
        verdict: s("verdict"),
        witness: s("witness"),
        error: s("error"),
        winner: s("winner"),
        cache_hit: b("cache_hit").unwrap_or(false),
        coalesced: b("coalesced").unwrap_or(false),
        latency_us: n("latency_us"),
        req: n("req").map_or(0, |x| x as u64),
        reachable: b("reachable"),
        log2_count: n("log2_count"),
    }
}
