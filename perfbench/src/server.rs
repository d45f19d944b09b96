//! The server under test: `rzen-cli serve` as a child process, plus the
//! HTTP side of its socket (`/healthz`, `/metrics`, `POST /delta`) and the
//! process figures read from `/proc/<pid>`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Flags the benchmark passes to `rzen-cli serve`. Loop mode and shard
/// count stay at their defaults; only the listen address is pinned to an
/// ephemeral port.
pub const SERVE_FLAGS: [&str; 4] = ["--addr", "127.0.0.1:0", "--sessions", "on"];

/// A running `rzen-cli serve` child. Killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn to first `/healthz` 200.
    pub setup: Duration,
}

impl Server {
    /// Spawn the server on `spec_path` and wait until `/healthz` answers 200.
    pub fn spawn(bin: &Path, spec_path: &Path) -> Result<Server, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg(spec_path)
            .args(SERVE_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not report its address: {line:?}"));
        };
        let mut server = Server {
            child,
            addr,
            setup: Duration::ZERO,
        };
        loop {
            if let Ok((200, _)) = http(addr, "GET", "/healthz", "") {
                break;
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("server never became healthy".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.setup = t0.elapsed();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU time the server has used so far.
    pub fn cpu(&self) -> Duration {
        proc_cpu(&format!("/proc/{}/stat", self.pid()))
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        proc_hwm_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Scrape `/metrics` into unlabelled-or-labelled series → value.
    pub fn metrics(&self) -> HashMap<String, f64> {
        match http(self.addr, "GET", "/metrics", "") {
            Ok((200, body)) => parse_prometheus(&body),
            _ => HashMap::new(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// CPU time (utime + stime) from a `/proc/<pid>/stat` file. The kernel
/// reports both in USER_HZ ticks, which Linux fixes at 100 per second.
pub fn proc_cpu(stat_path: &str) -> Duration {
    let text = std::fs::read_to_string(stat_path).unwrap_or_default();
    // The command name may contain spaces; fields restart after ")".
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // After ")": state is field 3 overall, so utime (14) and stime (15)
    // are at offsets 11 and 12.
    Duration::from_millis((tick(11) + tick(12)) * 10)
}

/// The machine's CPU ticks from the first line of `/proc/stat`:
/// (busy, stolen by the hypervisor, total).
pub fn host_ticks() -> (u64, u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal
    let busy = at(0) + at(1) + at(2) + at(5) + at(6);
    (busy, at(7), f.iter().sum())
}

/// Reset this process's peak resident set, so the next `VmHWM` read
/// covers only what runs after it (`5` is the kernel's reset-peak code).
/// Where the kernel refuses, `VmHWM` keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` from a `/proc/<pid>/status` file, MiB.
pub fn proc_hwm_mb(status_path: &str) -> f64 {
    let text = std::fs::read_to_string(status_path).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One HTTP/1.1 request on a fresh connection; returns (status, body).
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).map_err(|e| e.to_string())?;
    let mut raw = String::new();
    s.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("bad HTTP response {raw:?}"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

/// Parse Prometheus text exposition: every sample line becomes
/// `series → value`, where `series` keeps its label block.
pub fn parse_prometheus(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Counter delta between two scrapes; the registry names `a.b` render as
/// `a_b_total`.
pub fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, counter: &str) -> f64 {
    let key = format!("{}_total", counter.replace('.', "_"));
    after.get(&key).copied().unwrap_or(0.0) - before.get(&key).copied().unwrap_or(0.0)
}
