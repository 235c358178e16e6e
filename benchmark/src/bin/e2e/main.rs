//! End-to-end benchmark of the sysunc serving stack.
//!
//! ```text
//! e2e --workload <serve-cold|serve-hot|batch-zipf|fleet-hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts the served stack in this process (`sysunc-serve` as a
//! library, or `sysunc-fleet` with its shard children), drives it over
//! real sockets with a closed loop of two clients, checks every answer
//! it can against the in-process engines, and prints one JSON object as
//! the last line of standard output. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones. See `benchmark/NOTES.md`.

mod check;
mod drive;
mod gen;
mod layers;
mod sys;
mod target;
mod trace;
mod workload;

use std::process::ExitCode;
use std::sync::atomic::AtomicU64;

use check::Reference;
use drive::{median, quantile, Loop, RunResult};
use target::{cold_starts, Kind, Probe, Target};
use workload::{Traffic, Workload};

/// Operation index of warm-up traffic, far from the measured indices so
/// warm-up never answers a measured cold request in advance.
const WARM_BASE: u64 = 1 << 40;

/// Seconds of closed-loop traffic before measuring: threads, caches and
/// CPU frequency reach their steady state.
const WARM_SECONDS: f64 = 1.5;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.trace {
            layers::run(&args)
        } else {
            e2e(&args)
        }
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Cold starts per run; `setup_s` is their median. One start varies
/// several-fold within a run, so the median needs many. A fleet start
/// spawns two processes, so it repeats fewer times.
pub fn setup_starts(kind: Kind) -> usize {
    match kind {
        Kind::Serve => 31,
        Kind::Fleet => 9,
    }
}

/// A metric value with its unit, in output order.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        parts.join(", ")
    ))
}

/// Peak resident memory of this process plus its live children, MiB.
pub fn peak_rss_mib() -> f64 {
    let own = sys::vm_hwm_kib("self").unwrap_or(0);
    let children: u64 = sys::child_pids()
        .iter()
        .filter_map(|p| sys::vm_hwm_kib(&p.to_string()))
        .sum();
    (own + children) as f64 / 1024.0
}

/// The untraced run: every end-to-end metric.
fn e2e(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    let reference = Reference::new()?;
    let probe = Probe::new(&reference)?;
    let (target, setups) = cold_starts(workload.kind(), &probe, setup_starts(workload.kind()))?;
    let traffic = Traffic::prepare(workload, args.seed, &reference, target.addr())?;
    let run = warm_up(args, &traffic, &target)
        .and_then(|()| measure(args, &traffic, &target, &AtomicU64::new(0), false));
    let rss = peak_rss_mib();
    target.shutdown();
    let mut run = run?;
    let verified = traffic.verify(&mut run, &reference)?;
    let mut starts: Vec<f64> = setups.iter().map(|s| s.total.as_secs_f64() * 1e3).collect();
    let setup_s = median(&starts) / 1e3;
    starts.sort_by(f64::total_cmp);
    eprintln!(
        "{}: {} cold starts, ms: {}",
        workload.name(),
        starts.len(),
        starts
            .iter()
            .map(|s| format!("{s:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let lat = run.kept_latencies();
    eprintln!(
        "{}: seed {} ops {} jobs {} failed {} mismatches {} verified {} latencies seen {} \
         (kept {}) limit {:?} host steal {:.4}",
        workload.name(),
        args.seed,
        run.ops,
        run.jobs_attempted,
        run.jobs_failed,
        run.mismatches,
        verified,
        run.latency_count,
        lat.len(),
        workload.limit(),
        run.steal,
    );
    let window_s = run.seconds / drive::WINDOWS as f64;
    eprintln!(
        "{}: per window jobs/s and host steal (* kept): {}",
        workload.name(),
        run.windows
            .jobs
            .iter()
            .zip(&run.window_steal)
            .zip(run.kept())
            .map(|((j, s), k)| format!(
                "{:.0}@{:.3}{}",
                *j as f64 / window_s,
                s,
                if k { "*" } else { "" }
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let metrics = [
        metric("setup_s", setup_s, "s"),
        metric("jobs_per_s", run.rate(&run.windows.jobs), "1/s"),
        metric("goodput_jobs_per_s", run.rate(&run.windows.good), "1/s"),
        metric("samples_per_s", run.rate(&run.windows.samples), "1/s"),
        metric("latency_p50_us", quantile(&lat, 0.50) / 1e3, "us"),
        metric("latency_p99_us", quantile(&lat, 0.99) / 1e3, "us"),
        metric("peak_rss_mib", rss, "MiB"),
    ];
    result_line(
        run.mismatches == 0,
        run.jobs_attempted,
        run.jobs_failed,
        &metrics,
    )
}

/// Runs the workload's traffic unmeasured until threads, caches and CPU
/// frequency settle.
pub fn warm_up(args: &Args, traffic: &Traffic, target: &Target) -> Result<(), String> {
    let warm_next = AtomicU64::new(WARM_BASE);
    let warm = drive::run(&Loop {
        addr: target.addr(),
        traffic,
        next: &warm_next,
        seconds: WARM_SECONDS,
        limit: args.workload.limit(),
        seed: args.seed ^ 0xAA,
        trace: false,
    })?;
    if warm.jobs_failed > 0 {
        return Err(format!("{} jobs failed during warm-up", warm.jobs_failed));
    }
    Ok(())
}

/// The measured closed loop.
pub fn measure(
    args: &Args,
    traffic: &Traffic,
    target: &Target,
    next: &AtomicU64,
    trace: bool,
) -> Result<RunResult, String> {
    drive::run(&Loop {
        addr: target.addr(),
        traffic,
        next,
        seconds: args.seconds as f64,
        limit: args.workload.limit(),
        seed: args.seed,
        trace,
    })
}
