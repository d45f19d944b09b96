//! rzen's benchmark: one command, four workloads, every end-to-end metric
//! by name and unit, every verdict checked.
//!
//! ```text
//! rzen-perfbench --server-bin PATH --out-dir DIR
//!                --workload hot-hits|cold-fabric|delta-churn|acl-batch
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! The serve workloads spawn `rzen-cli serve` and load it from this
//! process; `acl-batch` calls `Engine::run_batch` in-process. With
//! `--trace 1` the run is split into an untraced and a traced half, and
//! the per-layer metrics come from counter diffs, response fields and a
//! replay of sampled inputs through each crate's public functions. The
//! last stdout line is the result as one JSON object. See README.md.

mod check;
mod client;
mod gen;
mod layers;
mod server;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use workloads::{Ctx, Metric, Report};

const WORKLOADS: [&str; 4] = ["hot-hits", "cold-fabric", "delta-churn", "acl-batch"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace").as_deref() {
            Ok("0") | Err(_) => false,
            Ok("1") => true,
            Ok(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        server_bin: get("--server-bin")?.into(),
        out_dir: get("--out-dir")?.into(),
    })
}

/// The git revision of the checkout, when it is a git repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

/// Online CPUs, what `nproc` counts without an affinity mask.
fn online_cpus() -> usize {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    text.trim()
        .split(',')
        .filter(|r| !r.is_empty())
        .map(|r| match r.split_once('-') {
            Some((a, b)) => b.parse::<usize>().unwrap_or(0) + 1 - a.parse::<usize>().unwrap_or(0),
            None => 1,
        })
        .sum()
}

/// CPU ticks of this process and of its reaped children (the servers):
/// utime + stime + cutime + cstime of `/proc/self/stat`.
fn own_ticks() -> u64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields restart after ")".
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace()
        .skip(11)
        .take(4)
        .map(|x| x.parse::<u64>().unwrap_or(0))
        .sum()
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("{title}");
    for m in ms {
        println!(
            "  {:<38} {:>14.4} {:<6} ({})",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// `{"name":{"value":V,"unit":"U"},...}`; non-finite values render as 0.
fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "?".into());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        server_bin: args.server_bin,
        out_dir: args.out_dir,
        jobs: parallelism,
        conns: parallelism.min(2),
        epoch: Instant::now(),
    };
    println!(
        "run record: rev={} nproc={} available_parallelism={parallelism} loadavg_1m={loadavg} \
         workload={} seed={} seconds={} trace={} server=\"rzen-cli serve SPEC {}\" client_conns={}",
        git_rev(),
        online_cpus(),
        args.workload,
        ctx.seed,
        ctx.seconds,
        args.trace as u8,
        server::SERVE_FLAGS.join(" "),
        ctx.conns,
    );
    let (host0, own0) = (server::host_ticks(), own_ticks());
    let run = match args.workload.as_str() {
        "hot-hits" => workloads::hot_hits(&ctx),
        "cold-fabric" => workloads::cold_fabric(&ctx),
        "delta-churn" => workloads::delta_churn(&ctx),
        _ => workloads::acl_batch(&ctx),
    };
    let mut report: Report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    // Other tenants of a shared host move every timing; say how much of
    // the machine they took while this run went on.
    let (host1, own1) = (server::host_ticks(), own_ticks());
    let total = host1.2.saturating_sub(host0.2);
    let others = (host1.0.saturating_sub(host0.0)).saturating_sub(own1.saturating_sub(own0));
    println!(
        "host during the run: {:.1}% of CPU time stolen by the hypervisor, {:.1}% used by \
         processes other than this benchmark and its servers ({total} ticks)",
        stats::ratio(host1.1.saturating_sub(host0.1) as f64, total as f64) * 100.0,
        stats::ratio(others as f64, total as f64) * 100.0
    );
    let failed = report.checker.failed;
    let attempted = report.attempted.max(1);
    report.info.insert(
        0,
        workloads::metric(
            "failed_ratio",
            "ratio",
            failed as f64 / attempted as f64,
            format!("{failed} of {attempted}: errors, sheds, timeouts, wrong or missing verdicts"),
        ),
    );
    print_metrics(&format!("end-to-end ({}):", args.workload), &report.e2e);
    print_metrics("end-to-end, not gated:", &report.info);
    if report.checker.served_witnesses() > 0 {
        println!(
            "served Sat witnesses: {} distinct, {} do not replay as untunneled packets \
             (the wire renders only the overlay header; verdicts are checked against the reference)",
            report.checker.served_witnesses(),
            report.checker.served_unreplayable
        );
    }
    for f in &report.checker.failures {
        println!("FAILED: {f}");
    }

    let metrics = if args.trace {
        let mut layers = Vec::new();
        for (name, unit) in layers::LAYER_METRICS {
            match report.layers.iter().position(|m| m.name == name) {
                Some(i) => layers.push(report.layers.swap_remove(i)),
                None => layers.push(workloads::metric(
                    name,
                    unit,
                    0.0,
                    "not exercised by this workload",
                )),
            }
        }
        print_metrics("per-layer:", &layers);
        println!("tracing overhead (traced half vs untraced half of this run):");
        for (u, t) in report.untraced.iter().zip(&report.e2e) {
            println!(
                "  {:<38} untraced {:>14.4} traced {:>14.4} {:<4} ({:+.1}%)",
                u.name,
                u.value,
                t.value,
                u.unit,
                stats::ratio(t.value - u.value, u.value) * 100.0
            );
        }
        if let Some(tr) = &report.tracer {
            println!("layer self time (spans recorded by the benchmark):");
            let total: u64 = tr.self_times().iter().map(|s| s.3).sum();
            for (name, n, t, s) in tr.self_times() {
                println!(
                    "  {name:<22} n={n:<7} total {:>10.3} ms  self {:>10.3} ms  ({:.1}%)",
                    t as f64 / 1e6,
                    s as f64 / 1e6,
                    stats::ratio(s as f64, total as f64) * 100.0
                );
            }
            let path = ctx
                .out_dir
                .join(format!("spans-{}-seed{}.jsonl", args.workload, ctx.seed));
            match std::fs::write(&path, tr.to_jsonl()) {
                Ok(()) => println!("spans: {} written to {}", tr.spans.len(), path.display()),
                Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
            }
        }
        layers
    } else {
        report.e2e
    };
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        json_metrics(&metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
